package simdram

import (
	"sync"

	"simdram/internal/graph"
	"simdram/internal/isa"
	"simdram/internal/verify"
)

// verifyScratch is the facade's half of a verification's working
// storage: the object table handed to the verifier, the row extents
// its objects point into, and the handle sets that build it. It is
// recycled through verifyPool, so concurrent preparations on one
// System each take their own.
type verifyScratch struct {
	objects []verify.Object
	extents []verify.Extent
	handles []uint16
	// seen collects the program's handles; defined holds the handles
	// of the objects a lowering stores before its program runs. Both
	// are left empty between uses.
	seen, defined isa.HandleSet
}

var verifyPool = sync.Pool{New: func() any { return newVerifyScratch() }}

// newVerifyScratch returns empty scratch. Its object table is non-nil
// even when empty, so a program naming no live object is checked
// against an empty table instead of skipping the binding checks.
func newVerifyScratch() *verifyScratch {
	return &verifyScratch{objects: make([]verify.Object, 0, 16)}
}

// recycle clears vs and returns it to the pool.
func (vs *verifyScratch) recycle() {
	clear(vs.objects)
	vs.objects = vs.objects[:0]
	clear(vs.extents)
	vs.extents = vs.extents[:0]
	verifyPool.Put(vs)
}

// verifyOptions snapshots what the object tracker knows about every
// handle a program references into the IR verifier's input, built in
// vs: element width, row extents per (bank, subarray) segment, and —
// when the program is a graph lowering (lw non-nil) — whether the
// object holds data before the program runs. The table lists the
// handles in ascending order, as the verifier requires; handles that
// name no live object are left out so the verifier reports them as
// CheckObject diagnostics. deps is the dependence graph the scheduler
// will execute with; passing it (rather than nil) makes the verifier
// cross-check the exact edges the batched engine uses.
func (s *System) verifyOptions(vs *verifyScratch, prog isa.Program, deps [][]int, lw *lowered) verify.Options {
	vs.handles = appendHandles(vs.handles[:0], prog, &vs.seen)
	total := 0
	for _, h := range vs.handles {
		if v := s.object(h); v != nil && !v.freed {
			total += len(v.segs)
		}
	}
	if cap(vs.extents) < total {
		vs.extents = make([]verify.Extent, 0, total)
	}
	if lw != nil {
		lw.markDefined(&vs.defined)
	}
	for _, h := range vs.handles {
		v := s.object(h)
		if v == nil || v.freed {
			continue
		}
		start := len(vs.extents)
		for _, seg := range v.segs {
			vs.extents = append(vs.extents, verify.Extent{Bank: seg.bank, Sub: seg.sub, Row: seg.baseRow, Rows: v.width})
		}
		vs.objects = append(vs.objects, verify.Object{
			Handle: h, Width: v.width, Defined: lw == nil || vs.defined.Has(h),
			Extents: vs.extents[start:len(vs.extents):len(vs.extents)],
		})
	}
	vs.defined.Reset()
	return verify.Options{
		Objects:  vs.objects,
		DataRows: s.cfg.DRAM.DataRows(),
		Deps:     deps,
	}
}

// verifyProgram runs the IR verifier over a program about to be
// prepared for execution, against the System's object table. lw is
// the graph lowering prog came from, whose own tables say which
// objects hold data before it runs (nil for directly submitted
// programs, whose operands are caller-stored vectors). An empty
// program has nothing to check and is not counted.
func (s *System) verifyProgram(prog isa.Program, deps [][]int, lw *lowered) error {
	if len(prog) == 0 {
		return nil
	}
	vs := verifyPool.Get().(*verifyScratch)
	defer vs.recycle()
	if err := verify.Program(prog, s.verifyOptions(vs, prog, deps, lw)); err != nil {
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
	if err := s.verifyProgram(lw.prog, nil, lw); err != nil {
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
	if len(lw.prog) == 0 {
		return nil
	}
	var seen, defined isa.HandleSet
	handles := appendHandles(make([]uint16, 0, 4*len(lw.prog)), lw.prog, &seen)
	lw.markDefined(&defined)
	objects := make([]verify.Object, 0, len(handles))
	for _, h := range handles {
		v, ok := c.objects[h]
		if !ok || v.freed {
			continue
		}
		objects = append(objects, verify.Object{Handle: h, Width: v.width, Defined: defined.Has(h)})
	}
	if err := verify.Program(lw.prog, verify.Options{Objects: objects}); err != nil {
		return err
	}
	c.verified.Add(1)
	return nil
}

// markDefined adds to set the handle of every object that holds data
// before lw's program runs: caller vectors, stored data leaves and
// splatted constants. Pooled slots and op roots, which the program
// itself writes, stay out.
func (lw *lowered) markDefined(set *isa.HandleSet) {
	for id, o := range lw.nodeObj {
		if o != nil && lw.g.Node(graph.NodeID(id)).Kind != graph.KindOp {
			set.Mark(o.Handle())
		}
	}
}

// appendHandles appends to hs the distinct object handles prog names,
// ascending (isa.HandleSet.MarkNamed: handle 0 of an unused source
// slot never names a live object). seen must be empty and is left
// empty.
func appendHandles(hs []uint16, prog isa.Program, seen *isa.HandleSet) []uint16 {
	seen.MarkNamed(prog)
	hs = seen.Append(hs)
	seen.Reset()
	return hs
}
