package simdram

import (
	"slices"

	"simdram/internal/isa"
	"simdram/internal/verify"
)

// verifyOptions snapshots what the object tracker knows about every
// handle a program references into the IR verifier's input: element
// width, row extents per (bank, subarray) segment, and — when the
// graph compiler supplies its definedness map — whether the object
// holds data before the program runs. Handles that name no live
// object are left out of the map so the verifier reports them as
// CheckObject diagnostics. deps is the dependence graph the scheduler
// will execute with; passing it (rather than nil) makes the verifier
// cross-check the exact edges the batched engine uses.
func (s *System) verifyOptions(prog isa.Program, deps [][]int, defined map[uint16]bool) verify.Options {
	handles := programHandles(prog)
	objects := make(map[uint16]verify.Object, len(handles))
	for _, h := range handles {
		v, ok := s.objects[h]
		if !ok || v.freed {
			continue
		}
		def := true
		if defined != nil {
			def = defined[h]
		}
		obj := verify.Object{Width: v.width, Defined: def, Extents: make([]verify.Extent, len(v.segs))}
		for i, seg := range v.segs {
			obj.Extents[i] = verify.Extent{Bank: seg.bank, Sub: seg.sub, Row: seg.baseRow, Rows: v.width}
		}
		objects[h] = obj
	}
	return verify.Options{
		Objects:  objects,
		DataRows: s.cfg.DRAM.DataRows(),
		Deps:     deps,
	}
}

// maybeVerify runs the IR verifier over a program about to be
// prepared for execution, when SetVerifyPlans is on. defined is the
// graph compiler's definedness map (nil for directly submitted
// programs, whose operands are caller-stored vectors).
func (s *System) maybeVerify(prog isa.Program, deps [][]int, defined map[uint16]bool) error {
	if !s.verifyPlans || len(prog) == 0 {
		return nil
	}
	if err := verify.Program(prog, s.verifyOptions(prog, deps, defined)); err != nil {
		return err
	}
	s.verified.Add(1)
	return nil
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
	if err := verify.Program(lw.prog, s.verifyOptions(lw.prog, nil, lw.defined)); err != nil {
		return err
	}
	s.verified.Add(1)
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
	hs := make([]uint16, 0, 4*len(prog))
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
