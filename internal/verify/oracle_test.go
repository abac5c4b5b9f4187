package verify_test

import (
	"cmp"
	"fmt"
	"slices"

	"simdram/internal/isa"
	"simdram/internal/ops"
	"simdram/internal/verify"
)

// oracleDiag is one diagnostic as FuzzProgram compares it: check,
// instruction, operand, handle and rendered text.
type oracleDiag struct {
	check   verify.Check
	instr   int
	operand int
	handle  uint16
	text    string
}

// oracleProgram is the verifier as it was before its object table
// became a handle-sorted slice: objects keyed by handle in a map, and
// the hazard check's accesses grouped by a stable comparison sort on
// handle. FuzzProgram holds verify.Program to it diagnostic for
// diagnostic. It is a straight transcription, kept as it was rather
// than made to share anything with the verifier.
func oracleProgram(p isa.Program, objects map[uint16]verify.Object, dataRows int, deps [][]int) []oracleDiag {
	c := &oracleChecker{objects: objects, dataRows: dataRows}
	if len(p) == 0 {
		c.report(verify.CheckEncoding, -1, verify.OperandNone, 0, "empty program")
		return c.diags
	}
	if deps == nil {
		deps = p.Deps()
	}
	depsOK := true
	if len(deps) != len(p) {
		c.report(verify.CheckDeps, -1, verify.OperandNone, 0,
			"dependence graph has %d rows for %d instructions", len(deps), len(p))
		depsOK = false
	} else {
		for i, row := range deps {
			for _, d := range row {
				if d < 0 || d >= i {
					c.report(verify.CheckDeps, i, verify.OperandNone, 0,
						"edge to instruction %d does not point strictly earlier", d)
					depsOK = false
				}
			}
		}
	}
	for i := range p {
		c.instruction(i, &p[i])
	}
	if depsOK {
		c.checkHazards(p, deps)
	}
	return c.diags
}

type oracleAccess struct {
	handle  uint16
	write   bool
	instr   int
	operand int
}

type oracleChecker struct {
	objects  map[uint16]verify.Object
	dataRows int
	diags    []oracleDiag
	touches  []oracleAccess
	written  map[uint16]bool
}

func (c *oracleChecker) report(check verify.Check, instr, operand int, handle uint16, format string, args ...any) {
	loc := ""
	if instr >= 0 {
		loc = fmt.Sprintf(": instruction %d", instr)
		switch {
		case operand == verify.OperandDst:
			loc += " [dst]"
		case operand >= 0:
			loc += fmt.Sprintf(" [src%d]", operand)
		}
	}
	text := fmt.Sprintf("verify: %s%s: %s", check, loc, fmt.Sprintf(format, args...))
	c.diags = append(c.diags, oracleDiag{check: check, instr: instr, operand: operand, handle: handle, text: text})
}

func (c *oracleChecker) checkBounds(i, operand int, h uint16, obj *verify.Object) {
	if c.dataRows <= 0 {
		return
	}
	for _, e := range obj.Extents {
		if e.Row < 0 || e.Rows < 0 || e.Row+e.Rows > c.dataRows {
			c.report(verify.CheckBounds, i, operand, h,
				"object %d rows [%d,%d) outside the %d-row data region of bank %d subarray %d",
				h, e.Row, e.Row+e.Rows, c.dataRows, e.Bank, e.Sub)
			return
		}
	}
}

func oracleOverlaps(e, o verify.Extent) bool {
	return e.Bank == o.Bank && e.Sub == o.Sub &&
		e.Row < o.Row+o.Rows && o.Row < e.Row+e.Rows
}

func (c *oracleChecker) instruction(i int, in *isa.Instruction) {
	if in.Width < 1 || in.Width > 64 {
		c.report(verify.CheckWidth, i, verify.OperandNone, 0, "element width %d out of range [1,64]", in.Width)
	}
	if in.Size == 0 {
		c.report(verify.CheckEncoding, i, verify.OperandNone, 0, "zero-size instruction")
	}
	tracked := c.objects != nil
	if in.Op == isa.OpTrspInit {
		h := in.Src[0]
		if tracked {
			obj, ok := c.objects[h]
			if !ok {
				c.report(verify.CheckObject, i, 0, h, "handle %d names no tracked object", h)
			} else {
				c.checkBounds(i, 0, h, &obj)
			}
		}
		c.touches = append(c.touches, oracleAccess{handle: h, instr: i, operand: 0})
		return
	}
	if !in.Op.IsOperation() {
		c.report(verify.CheckOpcode, i, verify.OperandNone, 0,
			"opcode %d is neither bbop_trsp_init nor an operation", in.Op)
		return
	}
	code, _ := in.Op.ToOp()
	def, err := ops.ByCode(code)
	if err != nil {
		c.report(verify.CheckOpcode, i, verify.OperandNone, 0,
			"opcode %d names no registered operation", in.Op)
		return
	}
	if def.Arity < 0 && in.N < 2 {
		c.report(verify.CheckArity, i, verify.OperandNone, 0,
			"N-ary operation %s needs N >= 2, have N=%d", def.Name, in.N)
		return
	}
	arity := def.EffArity(int(in.N))
	if arity < 1 || arity > 3 {
		c.report(verify.CheckArity, i, verify.OperandNone, 0,
			"operation %s has effective arity %d, the encodable range is [1,3]", def.Name, arity)
		return
	}

	w := int(in.Width)
	wantDst := def.DstWidth(w)
	var srcWs []int
	if def.SrcWidths != nil {
		srcWs = def.SrcWidths(w)
	}

	var dstObj verify.Object
	dstKnown := false
	if tracked {
		var ok bool
		if dstObj, ok = c.objects[in.Dst]; !ok {
			c.report(verify.CheckObject, i, verify.OperandDst, in.Dst, "handle %d names no tracked object", in.Dst)
		} else {
			dstKnown = true
			if dstObj.Width != wantDst {
				c.report(verify.CheckWidth, i, verify.OperandDst, in.Dst,
					"destination is %d bits wide, operation %s produces %d-bit elements from %d-bit sources",
					dstObj.Width, def.Name, wantDst, w)
			}
			c.checkBounds(i, verify.OperandDst, in.Dst, &dstObj)
		}
	}
	for k := 0; k < arity; k++ {
		h := in.Src[k]
		c.touches = append(c.touches, oracleAccess{handle: h, instr: i, operand: k})
		if !tracked {
			continue
		}
		obj, ok := c.objects[h]
		if !ok {
			c.report(verify.CheckObject, i, k, h, "handle %d names no tracked object", h)
			continue
		}
		want := w
		if srcWs != nil {
			want = -1
			if k < len(srcWs) {
				want = srcWs[k]
			}
		}
		if want >= 0 && obj.Width != want {
			c.report(verify.CheckWidth, i, k, h,
				"source is %d bits wide, operation %s wants a %d-bit operand here",
				obj.Width, def.Name, want)
		}
		if !obj.Defined && !c.written[h] {
			c.report(verify.CheckDefUse, i, k, h,
				"reads object %d before any instruction defines it", h)
		}
		c.checkBounds(i, k, h, &obj)
		if h == in.Dst {
			c.report(verify.CheckAlias, i, k, h,
				"destination and source are the same object %d; SIMDRAM operations are never in-place", h)
		} else if dstKnown {
			for _, de := range dstObj.Extents {
				for _, se := range obj.Extents {
					if oracleOverlaps(de, se) {
						c.report(verify.CheckAlias, i, k, h,
							"destination object %d rows [%d,%d) overlap source object %d rows [%d,%d) in bank %d subarray %d",
							in.Dst, de.Row, de.Row+de.Rows, h, se.Row, se.Row+se.Rows, de.Bank, de.Sub)
					}
				}
			}
		}
	}
	c.touches = append(c.touches, oracleAccess{handle: in.Dst, instr: i, operand: verify.OperandDst, write: true})
	if c.written == nil {
		c.written = map[uint16]bool{}
	}
	c.written[in.Dst] = true
}

func (c *oracleChecker) checkHazards(p isa.Program, deps [][]int) {
	n := len(p)
	anc := make([]map[int]bool, n)
	for i := 0; i < n; i++ {
		anc[i] = map[int]bool{}
		for _, d := range deps[i] {
			for a := range anc[d] {
				anc[i][a] = true
			}
			anc[i][d] = true
		}
	}
	ordered := func(earlier, later int) bool { return anc[later][earlier] }

	slices.SortStableFunc(c.touches, func(a, b oracleAccess) int { return cmp.Compare(a.handle, b.handle) })
	for start := 0; start < len(c.touches); {
		h := c.touches[start].handle
		end := start + 1
		for end < len(c.touches) && c.touches[end].handle == h {
			end++
		}
		lastWrite := -1
		var readersSince []oracleAccess
		for _, a := range c.touches[start:end] {
			if !a.write {
				if lastWrite >= 0 && lastWrite != a.instr && !ordered(lastWrite, a.instr) {
					c.report(verify.CheckHazard, a.instr, a.operand, h,
						"read-after-write hazard on object %d: no dependence path orders this after instruction %d",
						h, lastWrite)
				}
				readersSince = append(readersSince, a)
				continue
			}
			if lastWrite >= 0 && lastWrite != a.instr && !ordered(lastWrite, a.instr) {
				c.report(verify.CheckHazard, a.instr, a.operand, h,
					"write-after-write hazard on object %d: no dependence path orders this after instruction %d",
					h, lastWrite)
			}
			for _, r := range readersSince {
				if r.instr != a.instr && !ordered(r.instr, a.instr) {
					c.report(verify.CheckHazard, a.instr, a.operand, h,
						"write-after-read hazard on object %d: no dependence path orders this after the read at instruction %d",
						h, r.instr)
				}
			}
			lastWrite = a.instr
			readersSince = readersSince[:0]
		}
		start = end
	}
}
