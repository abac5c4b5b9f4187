package simdram

import (
	"slices"
	"sync"

	"simdram/internal/isa"
	"simdram/internal/verify"
)

// verifyScratch is the facade's half of a verification's working
// storage: the object table handed to the verifier and the row extents
// its objects point into. It is recycled through verifyPool, so
// concurrent preparations on one System each take their own.
type verifyScratch struct {
	objects map[uint16]verify.Object
	extents []verify.Extent
	handles []uint16
}

var verifyPool = sync.Pool{New: func() any { return newVerifyScratch() }}

func newVerifyScratch() *verifyScratch {
	return &verifyScratch{objects: map[uint16]verify.Object{}}
}

// recycle clears vs and returns it to the pool.
func (vs *verifyScratch) recycle() {
	clear(vs.objects)
	clear(vs.extents)
	vs.extents = vs.extents[:0]
	verifyPool.Put(vs)
}

// verifyOptions snapshots what the object tracker knows about every
// handle a program references into the IR verifier's input, built in
// vs: element width, row extents per (bank, subarray) segment, and —
// when the graph compiler supplies its definedness map — whether the
// object holds data before the program runs. Handles that name no
// live object are left out of the map so the verifier reports them as
// CheckObject diagnostics. deps is the dependence graph the scheduler
// will execute with; passing it (rather than nil) makes the verifier
// cross-check the exact edges the batched engine uses.
func (s *System) verifyOptions(vs *verifyScratch, prog isa.Program, deps [][]int, defined map[uint16]bool) verify.Options {
	vs.handles = appendHandles(vs.handles[:0], prog)
	total := 0
	for _, h := range vs.handles {
		if v, ok := s.objects[h]; ok && !v.freed {
			total += len(v.segs)
		}
	}
	if cap(vs.extents) < total {
		vs.extents = make([]verify.Extent, 0, total)
	}
	for _, h := range vs.handles {
		v, ok := s.objects[h]
		if !ok || v.freed {
			continue
		}
		def := true
		if defined != nil {
			def = defined[h]
		}
		start := len(vs.extents)
		for _, seg := range v.segs {
			vs.extents = append(vs.extents, verify.Extent{Bank: seg.bank, Sub: seg.sub, Row: seg.baseRow, Rows: v.width})
		}
		vs.objects[h] = verify.Object{Width: v.width, Defined: def, Extents: vs.extents[start:len(vs.extents):len(vs.extents)]}
	}
	return verify.Options{
		Objects:  vs.objects,
		DataRows: s.cfg.DRAM.DataRows(),
		Deps:     deps,
	}
}

// verifyProgram runs the IR verifier over prog against the System's
// object table.
func (s *System) verifyProgram(prog isa.Program, deps [][]int, defined map[uint16]bool) error {
	vs := verifyPool.Get().(*verifyScratch)
	defer vs.recycle()
	if err := verify.Program(prog, s.verifyOptions(vs, prog, deps, defined)); err != nil {
		return err
	}
	s.verified.Add(1)
	return nil
}

// maybeVerify runs the IR verifier over a program about to be
// prepared for execution, when SetVerifyPlans is on. defined is the
// graph compiler's definedness map (nil for directly submitted
// programs, whose operands are caller-stored vectors).
func (s *System) maybeVerify(prog isa.Program, deps [][]int, defined map[uint16]bool) error {
	if !s.verifyPlans || len(prog) == 0 {
		return nil
	}
	return s.verifyProgram(prog, deps, defined)
}

// verifyLowered verifies a freshly compiled graph program against the
// compiler's own definedness tracking (temp slots and op roots start
// undefined; inputs and constants are defined), so Compile reports a
// bad plan. The dependence graph is recomputed by the verifier so the
// hazard cross-check covers the exact edges prepareProgram will hand
// the scheduler; a lowering checked here is not checked again when it
// is prepared. The serving path skips this and checks at prepare.
func (s *System) verifyLowered(lw *lowered) error {
	if !s.verifyPlans || len(lw.prog) == 0 {
		return nil
	}
	if err := s.verifyProgram(lw.prog, nil, lw.defined); err != nil {
		return err
	}
	lw.verified = true
	return nil
}

// verifyLowered verifies a cluster-compiled program over cluster-wide
// handles. Sharded vectors have no single physical placement, so the
// alias and bounds checks run later, per channel, on the rewritten
// sub-programs; here the verifier covers encoding, opcode/arity/width
// against the handle table, def-before-use, and the hazard
// cross-check.
func (c *Cluster) verifyLowered(lw *lowered) error {
	if !c.verifyPlans || len(lw.prog) == 0 {
		return nil
	}
	handles := programHandles(lw.prog)
	objects := make(map[uint16]verify.Object, len(handles))
	for _, h := range handles {
		v, ok := c.objects[h]
		if !ok || v.freed {
			continue
		}
		def := true
		if lw.defined != nil {
			def = lw.defined[h]
		}
		objects[h] = verify.Object{Width: v.width, Defined: def}
	}
	if err := verify.Program(lw.prog, verify.Options{Objects: objects}); err != nil {
		return err
	}
	c.verified.Add(1)
	return nil
}

// programHandles returns the distinct object handles a program
// references, ascending: the announced object for bbop_trsp_init, the
// destination and all three source slots for operations (unused
// slots hold handle 0, which never names a live object).
func programHandles(prog isa.Program) []uint16 {
	return appendHandles(make([]uint16, 0, 4*len(prog)), prog)
}

// appendHandles is programHandles into hs, which must be empty.
func appendHandles(hs []uint16, prog isa.Program) []uint16 {
	for _, in := range prog {
		if in.Op == isa.OpTrspInit {
			hs = append(hs, in.Src[0])
			continue
		}
		hs = append(hs, in.Dst, in.Src[0], in.Src[1], in.Src[2])
	}
	slices.Sort(hs)
	return slices.Compact(hs)
}
