// Package verify statically checks a compiled isa.Program (and,
// optionally, the object binding it will run against) before anything
// is issued to the control unit. The SIMDRAM lowering chain — graph
// DAG → isa.Program → ctrl batch plan → uprog.ResolvedStream — is
// otherwise only validated dynamically, so a miscompile (a slot-reuse
// WAR bug, a stale hazard edge, a width mismatch on a custom op)
// would surface as silently wrong results. The verifier turns those
// into typed, located compile-time diagnostics.
//
// Checks, in evaluation order:
//
//   - encoding: non-empty program, non-zero element counts
//   - deps: the supplied dependence graph is structurally sound
//     (one row per instruction, every edge points strictly earlier)
//   - opcode / arity / width: every instruction resolves against the
//     ops catalog (including RegisterCustom codes), its effective
//     arity is encodable, and operand widths match the operation's
//     signature
//   - object / def-use: every handle names a tracked object and no
//     source is read before something defines it
//   - alias: the destination's row extents are disjoint from every
//     source's (SIMDRAM μPrograms clobber scratch rows in the
//     destination's region, so in-place operation is never safe)
//   - bounds: every referenced row extent fits inside the subarray's
//     data-row region
//   - hazard: an independent recomputation of the RAW/WAW/WAR hazard
//     pairs, cross-checked against the dependence graph the scheduler
//     will use (isa.Program.Deps by default) — every hazard pair must
//     be ordered by some path of edges, so the scheduler can never
//     silently under-constrain
//
// All failures are reported together as an errors.Join of
// *Diagnostic values; use errors.As to recover the first one, or
// Diagnostics to recover them all.
package verify

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"simdram/internal/isa"
	"simdram/internal/ops"
)

// Check names one verifier check; every Diagnostic carries the check
// that produced it.
type Check string

// The verifier's checks.
const (
	CheckEncoding Check = "encoding" // program/instruction shape (empty program, zero size)
	CheckOpcode   Check = "opcode"   // opcode resolves against the ops catalog
	CheckArity    Check = "arity"    // effective operand count is encodable and sane
	CheckWidth    Check = "width"    // element widths match the operation signature
	CheckObject   Check = "object"   // every handle names a tracked object
	CheckDefUse   Check = "def-use"  // no source read before definition
	CheckAlias    Check = "alias"    // destination extents disjoint from sources
	CheckBounds   Check = "bounds"   // extents inside the subarray data-row region
	CheckDeps     Check = "deps"     // dependence graph structurally sound
	CheckHazard   Check = "hazard"   // every RAW/WAW/WAR pair ordered by the graph
)

// Operand values for Diagnostic.Operand beyond source indices 0..2.
const (
	// OperandNone marks a diagnostic about the whole instruction (or
	// the whole program, when Instr is negative).
	OperandNone = -2
	// OperandDst marks a diagnostic about the destination operand.
	OperandDst = -1
)

// Diagnostic is one located verifier failure: which check failed, on
// which instruction, on which operand, about which object handle.
type Diagnostic struct {
	Check   Check  // the check that failed
	Instr   int    // instruction index; -1 for program-level diagnostics
	Operand int    // source index 0..2, OperandDst, or OperandNone
	Handle  uint16 // the object handle involved, if any
	msg     string
}

// Error renders the diagnostic as
// "verify: <check>: instruction <i> [dst|src<k>]: <detail>".
func (d *Diagnostic) Error() string {
	loc := ""
	if d.Instr >= 0 {
		loc = fmt.Sprintf(": instruction %d", d.Instr)
		switch {
		case d.Operand == OperandDst:
			loc += " [dst]"
		case d.Operand >= 0:
			loc += fmt.Sprintf(" [src%d]", d.Operand)
		}
	}
	return fmt.Sprintf("verify: %s%s: %s", d.Check, loc, d.msg)
}

// Extent is one contiguous run of DRAM rows an object occupies within
// a (bank, subarray) pair: Rows rows starting at Row.
type Extent struct {
	Bank, Sub int
	Row, Rows int
}

// overlaps reports whether two extents share at least one row.
func (e Extent) overlaps(o Extent) bool {
	return e.Bank == o.Bank && e.Sub == o.Sub &&
		e.Row < o.Row+o.Rows && o.Row < e.Row+e.Rows
}

// Object describes what the verifier knows about one handle's
// backing object.
type Object struct {
	// Width is the object's element width in bits.
	Width int
	// Defined reports whether the object holds data before the program
	// runs (stored input, splatted constant). Undefined objects must be
	// written by an earlier instruction before anything reads them.
	Defined bool
	// Extents are the row ranges the object occupies; nil skips the
	// alias and bounds checks for this handle.
	Extents []Extent
}

// Options configures Program.
type Options struct {
	// Objects maps instruction handles to their backing objects. Nil
	// skips every binding-dependent check (object, def-use, width
	// against the binding, alias, bounds); the encoding, opcode,
	// arity, deps, and hazard checks still run.
	Objects map[uint16]Object
	// DataRows is the number of data rows per subarray; 0 skips the
	// bounds check.
	DataRows int
	// Deps is the dependence graph the scheduler will execute with.
	// Nil makes the verifier compute isa.Program.Deps itself — that is
	// the cross-check mode: the recomputed hazard pairs are validated
	// against the exact graph the batched engine uses.
	Deps [][]int
}

// Program verifies p against opt and returns every failure joined
// into one error (nil when the program verifies clean). Its working
// storage comes from a pool, so a clean verification allocates
// nothing but the dependence graph it computes when opt.Deps is nil;
// Program is safe for concurrent use.
func Program(p isa.Program, opt Options) error {
	c := checkerPool.Get().(*checker)
	defer c.recycle()
	c.opt = opt

	if len(p) == 0 {
		c.report(CheckEncoding, -1, OperandNone, 0, "empty program")
		return errors.Join(c.diags...)
	}

	deps := opt.Deps
	if deps == nil {
		deps = p.Deps()
	}
	depsOK := true
	if len(deps) != len(p) {
		c.report(CheckDeps, -1, OperandNone, 0,
			"dependence graph has %d rows for %d instructions", len(deps), len(p))
		depsOK = false
	} else {
		for i, row := range deps {
			for _, d := range row {
				if d < 0 || d >= i {
					c.report(CheckDeps, i, OperandNone, 0,
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
	return errors.Join(c.diags...)
}

// checker is one verification's state: the failures found so far and
// the scratch the checks reuse from run to run (see checkerPool).
type checker struct {
	opt   Options
	diags []error
	// touches records every handle access in program order; written
	// is a bitset over handles, set once an instruction writes one.
	touches []access
	written [1 << 16 / 64]uint64
	// Hazard-check scratch: per-instruction ancestor bitsets and the
	// readers of a handle since its last write.
	anc          []uint64
	readersSince []access
}

// checkerPool recycles checkers across verifications, including
// concurrent ones: each Program call takes its own.
var checkerPool = sync.Pool{New: func() any { return new(checker) }}

// recycle clears c and returns it to the pool.
func (c *checker) recycle() {
	for _, a := range c.touches {
		c.written[a.handle/64] = 0
	}
	clear(c.diags)
	c.opt, c.diags, c.touches = Options{}, c.diags[:0], c.touches[:0]
	checkerPool.Put(c)
}

// report records one diagnostic.
func (c *checker) report(check Check, instr, operand int, handle uint16, format string, args ...any) {
	c.diags = append(c.diags, &Diagnostic{
		Check:   check,
		Instr:   instr,
		Operand: operand,
		Handle:  handle,
		msg:     fmt.Sprintf(format, args...),
	})
}

func (c *checker) isWritten(h uint16) bool { return c.written[h/64]&(1<<(h%64)) != 0 }

// checkBounds reports the first extent of obj outside the data rows.
func (c *checker) checkBounds(i, operand int, h uint16, obj *Object) {
	if c.opt.DataRows <= 0 {
		return
	}
	for _, e := range obj.Extents {
		if e.Row < 0 || e.Rows < 0 || e.Row+e.Rows > c.opt.DataRows {
			c.report(CheckBounds, i, operand, h,
				"object %d rows [%d,%d) outside the %d-row data region of bank %d subarray %d",
				h, e.Row, e.Row+e.Rows, c.opt.DataRows, e.Bank, e.Sub)
			return
		}
	}
}

// instruction runs every per-instruction check on instruction i and
// records its accesses for the hazard check.
func (c *checker) instruction(i int, in *isa.Instruction) {
	if in.Width < 1 || in.Width > 64 {
		c.report(CheckWidth, i, OperandNone, 0, "element width %d out of range [1,64]", in.Width)
	}
	if in.Size == 0 {
		c.report(CheckEncoding, i, OperandNone, 0, "zero-size instruction")
	}
	tracked := c.opt.Objects != nil
	if in.Op == isa.OpTrspInit {
		h := in.Src[0]
		if tracked {
			obj, ok := c.opt.Objects[h]
			if !ok {
				c.report(CheckObject, i, 0, h, "handle %d names no tracked object", h)
			} else {
				c.checkBounds(i, 0, h, &obj)
			}
		}
		c.touches = append(c.touches, access{handle: h, instr: i, operand: 0})
		return
	}
	if !in.Op.IsOperation() {
		c.report(CheckOpcode, i, OperandNone, 0,
			"opcode %d is neither bbop_trsp_init nor an operation", in.Op)
		return
	}
	code, _ := in.Op.ToOp()
	def, err := ops.ByCode(code)
	if err != nil {
		c.report(CheckOpcode, i, OperandNone, 0,
			"opcode %d names no registered operation", in.Op)
		return
	}
	if def.Arity < 0 && in.N < 2 {
		c.report(CheckArity, i, OperandNone, 0,
			"N-ary operation %s needs N >= 2, have N=%d", def.Name, in.N)
		return
	}
	arity := def.EffArity(int(in.N))
	if arity < 1 || arity > 3 {
		c.report(CheckArity, i, OperandNone, 0,
			"operation %s has effective arity %d, the encodable range is [1,3]", def.Name, arity)
		return
	}

	w := int(in.Width)
	wantDst := def.DstWidth(w)
	var srcWs []int // nil: every operand is w bits (ops.Def.SourceWidths)
	if def.SrcWidths != nil {
		srcWs = def.SrcWidths(w)
	}

	var dstObj Object
	dstKnown := false
	if tracked {
		var ok bool
		if dstObj, ok = c.opt.Objects[in.Dst]; !ok {
			c.report(CheckObject, i, OperandDst, in.Dst, "handle %d names no tracked object", in.Dst)
		} else {
			dstKnown = true
			if dstObj.Width != wantDst {
				c.report(CheckWidth, i, OperandDst, in.Dst,
					"destination is %d bits wide, operation %s produces %d-bit elements from %d-bit sources",
					dstObj.Width, def.Name, wantDst, w)
			}
			c.checkBounds(i, OperandDst, in.Dst, &dstObj)
		}
	}
	for k := 0; k < arity; k++ {
		h := in.Src[k]
		c.touches = append(c.touches, access{handle: h, instr: i, operand: k})
		if !tracked {
			continue
		}
		obj, ok := c.opt.Objects[h]
		if !ok {
			c.report(CheckObject, i, k, h, "handle %d names no tracked object", h)
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
			c.report(CheckWidth, i, k, h,
				"source is %d bits wide, operation %s wants a %d-bit operand here",
				obj.Width, def.Name, want)
		}
		if !obj.Defined && !c.isWritten(h) {
			c.report(CheckDefUse, i, k, h,
				"reads object %d before any instruction defines it", h)
		}
		c.checkBounds(i, k, h, &obj)
		if h == in.Dst {
			c.report(CheckAlias, i, k, h,
				"destination and source are the same object %d; SIMDRAM operations are never in-place", h)
		} else if dstKnown {
			for _, de := range dstObj.Extents {
				for _, se := range obj.Extents {
					if de.overlaps(se) {
						c.report(CheckAlias, i, k, h,
							"destination object %d rows [%d,%d) overlap source object %d rows [%d,%d) in bank %d subarray %d",
							in.Dst, de.Row, de.Row+de.Rows, h, se.Row, se.Row+se.Rows, de.Bank, de.Sub)
					}
				}
			}
		}
	}
	c.touches = append(c.touches, access{handle: in.Dst, instr: i, operand: OperandDst, write: true})
	c.written[in.Dst/64] |= 1 << (in.Dst % 64)
}

// checkHazards replays every handle's access sequence, derives the
// RAW/WAW/WAR hazard pairs exactly as isa.Program.Deps defines them
// (against the last writer and the readers since it), and requires
// each pair to be ordered by a path of edges in deps. Reachability is
// precomputed as per-instruction ancestor bitsets — valid because
// every edge points strictly earlier (checked by the caller). Handles
// are checked in ascending order.
func (c *checker) checkHazards(p isa.Program, deps [][]int) {
	n := len(p)
	words := (n + 63) / 64
	if cap(c.anc) < n*words {
		c.anc = make([]uint64, n*words)
	}
	anc := c.anc[:n*words]
	clear(anc)
	for i := 0; i < n; i++ {
		row := anc[i*words : (i+1)*words]
		for _, d := range deps[i] {
			drow := anc[d*words : (d+1)*words]
			for w := range row {
				row[w] |= drow[w]
			}
			row[d/64] |= 1 << (d % 64)
		}
	}
	ordered := func(earlier, later int) bool {
		return anc[later*words+earlier/64]&(1<<(earlier%64)) != 0
	}

	// A stable sort by handle keeps each handle's accesses in program
	// order.
	slices.SortStableFunc(c.touches, func(a, b access) int { return cmp.Compare(a.handle, b.handle) })
	for start := 0; start < len(c.touches); {
		h := c.touches[start].handle
		end := start + 1
		for end < len(c.touches) && c.touches[end].handle == h {
			end++
		}
		lastWrite := -1
		readersSince := c.readersSince[:0]
		for _, a := range c.touches[start:end] {
			if !a.write {
				if lastWrite >= 0 && lastWrite != a.instr && !ordered(lastWrite, a.instr) {
					c.report(CheckHazard, a.instr, a.operand, h,
						"read-after-write hazard on object %d: no dependence path orders this after instruction %d",
						h, lastWrite)
				}
				readersSince = append(readersSince, a)
				continue
			}
			if lastWrite >= 0 && lastWrite != a.instr && !ordered(lastWrite, a.instr) {
				c.report(CheckHazard, a.instr, a.operand, h,
					"write-after-write hazard on object %d: no dependence path orders this after instruction %d",
					h, lastWrite)
			}
			for _, r := range readersSince {
				if r.instr != a.instr && !ordered(r.instr, a.instr) {
					c.report(CheckHazard, a.instr, a.operand, h,
						"write-after-read hazard on object %d: no dependence path orders this after the read at instruction %d",
						h, r.instr)
				}
			}
			lastWrite = a.instr
			readersSince = readersSince[:0]
		}
		c.readersSince = readersSince
		start = end
	}
}

// access records one handle touch (the handle, the instruction, the
// operand slot, read or write) for the hazard recomputation.
type access struct {
	handle  uint16
	write   bool
	instr   int
	operand int
}
