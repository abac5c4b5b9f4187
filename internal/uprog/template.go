package uprog

import (
	"fmt"

	"simdram/internal/dram"
)

// Template is a μProgram resolved once per geometry, independent of
// any placement. Its ops are flattened and checked with
// dram.RowMap.CheckOp against a virtual geometry: the program's regions
// packed as data rows (src0 … srcN-1, dst, scratch), followed by the
// real geometry's compute rows. The checked ops are lowered once to a
// dram.Plan. A placement is bound as a row view (BindInto) and the shared
// plan runs through it (RunView), so binding a fresh placement neither
// copies nor re-checks an op.
//
// Checking once is sound because no check depends on the placement.
// Binding validation keeps every region inside the data rows and forbids
// the destination or scratch overlapping anything; only sources may
// alias, and aliased sources only ever share data rows, which have no
// DCC partners. So the DCC partners and every CheckOp condition come
// out the same on the virtual rows as on the physical ones. Lowering
// treats virtual rows as distinct storage, which holds while no op
// writes a source row; a program that writes one gets an unlowered
// plan. A template is immutable and safe to share across goroutines.
type Template struct {
	Ops []dram.Op // on virtual rows

	prog  *Program
	rows  dram.RowMap // the physical geometry
	vrows dram.RowMap // the virtual geometry Ops were checked against
	src   []int32     // virtual first row of each source region
	dst   int32       // virtual first row of the destination region
	scr   int32       // virtual first row of the scratch region
	plan  dram.Plan   // Ops lowered, or not when one writes a source row
	err   error       // why the program cannot be templated, if it cannot
	nAAP  int         // prog.NumAAP(), counted once
	nAP   int         // prog.NumAP(), counted once
}

// LatencyNs is the template's Program.LatencyNs, from command counts
// taken once when the template was built.
func (t *Template) LatencyNs(tm dram.Timing) float64 {
	return float64(t.nAAP)*tm.AAPLatency() + float64(t.nAP)*tm.APLatency()
}

// NewTemplate resolves p against cfg's geometry once. It never fails:
// a program with an op the DRAM commands would refuse, or a data
// reference outside its own regions, yields a template whose Bind
// reports the error.
func NewTemplate(p *Program, cfg dram.Config) *Template {
	rm := cfg.RowMap()
	t := &Template{prog: p, rows: rm, src: make([]int32, p.NumSrc), nAAP: p.NumAAP(), nAP: p.NumAP()}
	var n int32
	for k := range t.src {
		t.src[k] = n
		n += int32(p.SrcWidth(k))
	}
	t.dst = n
	t.scr = n + int32(p.DstWidth)
	n = t.scr + int32(p.NumScratch)
	t.vrows = dram.RowMap{T: n, DCC: n + rm.DCC - rm.T, C0: n + rm.C0 - rm.T}
	t.Ops = make([]dram.Op, len(p.Ops))
	for i := range p.Ops {
		if err := flatten(&p.Ops[i], &t.Ops[i], &t.vrows, t.row); err != nil {
			t.err = fmt.Errorf("uprog: op %d: %w", i, err)
			t.Ops = nil
			return t
		}
	}
	t.plan = t.vrows.Plan(t.Ops, !writesRowBelow(t.Ops, t.dst))
	return t
}

// writesRowBelow reports whether an op writes a row below lim: on a
// template's virtual rows, a source row, which aliased sources share.
// Destinations name every row an op writes but DCC partners and T
// rows, which lie above the data rows.
func writesRowBelow(ops []dram.Op, lim int32) bool {
	for i := range ops {
		for _, d := range ops[i].Dsts[:ops[i].NDst] {
			if d < lim {
				return true
			}
		}
	}
	return false
}

// row maps a symbolic reference to its virtual row. Data references
// must lie in their region: outside it a reference would land on rows
// the placement decides, which a template cannot fix in advance.
func (t *Template) row(r Ref, vm *dram.RowMap) (int32, error) {
	p := t.prog
	var base int32
	var size int
	switch r.Space {
	case SpaceSrc:
		if r.Op < 0 || r.Op >= p.NumSrc {
			return 0, fmt.Errorf("uprog: %v names no source of the program", r)
		}
		base, size = t.src[r.Op], p.SrcWidth(r.Op)
	case SpaceDst:
		base, size = t.dst, p.DstWidth
	case SpaceScratch:
		base, size = t.scr, p.NumScratch
	default:
		return computeRow(r, vm)
	}
	if r.Idx < 0 || r.Idx >= size {
		return 0, fmt.Errorf("uprog: %v outside its %d-row region", r, size)
	}
	return base + int32(r.Idx), nil
}

// View is a template bound to one placement on one subarray: the
// run-many artifact of the execution hot path. It is immutable and
// shares the subarray's row storage.
type View struct {
	t    *Template
	rows dram.View
}

// Rows returns the length of a view's row table: the template's
// virtual rows, which BindInto's phys and rows must each hold.
func (t *Template) Rows() int { return int(t.vrows.Rows()) }

// BindInto validates the binding against the template's program and
// returns the view that runs the template at that placement on sa. It
// copies no op and checks none: only the binding is validated. A
// rejected binding reports exactly the error Resolve gives for it, as
// does any binding of a template NewTemplate could not build (or, when
// Resolve accepts such a binding, the template's own error). Binding
// on a subarray of another geometry panics. The view keeps phys and
// rows, each Rows() long, as its physical-row map and row table, so a
// caller binding many views can carve them from one slab. On error
// phys and rows hold nothing the caller needs.
func (t *Template) BindInto(sa *dram.Subarray, b Binding, phys []int32, rows [][]uint64) (View, error) {
	if sa.RowMap() != t.rows {
		panic("uprog: template built for a different geometry")
	}
	if err := b.validate(t.prog, int(t.rows.T)); err != nil {
		return View{}, err
	}
	if t.err != nil {
		if _, err := resolve(t.prog, b, t.rows); err != nil {
			return View{}, err
		}
		return View{}, t.err
	}
	for k, base := range t.src {
		for i := range t.prog.SrcWidth(k) {
			phys[int(base)+i] = int32(b.SrcBase[k] + i)
		}
	}
	for i := range t.prog.DstWidth {
		phys[int(t.dst)+i] = int32(b.DstBase + i)
	}
	for i := range t.prog.NumScratch {
		phys[int(t.scr)+i] = int32(b.ScratchBase + i)
	}
	for v := t.vrows.T; v < t.vrows.Rows(); v++ {
		phys[v] = v - t.vrows.T + t.rows.T
	}
	return View{t: t, rows: sa.NewView(phys, rows)}, nil
}

// RunView executes a bound template on the subarray it was bound on:
// the run-many loop of the control unit. It issues exactly the DRAM
// command sequence, row contents, Stats and physical-row trace that
// Resolve and RunResolved give for the view's binding (pinned by the
// differential tests). Running a view on another subarray panics.
//
// Reentrancy matches RunResolved: concurrent calls on distinct
// subarrays are safe; two concurrent runs on the same subarray race.
//
//simdram:zeroalloc
func RunView(sa *dram.Subarray, v *View) {
	sa.ExecView(&v.rows, &v.t.plan)
}
