package uprog

import (
	"fmt"

	"simdram/internal/dram"
)

// ResolvedStream is a μProgram bound to one concrete placement: every
// op flattened to a checked dram.Op on physical rows and lowered to a
// dram.Plan, so RunResolved hands the plan to the DRAM command kernel
// with no per-command validation, no error paths and no allocation. It
// is the per-binding form a Template is differentially tested against.
// A stream is immutable after Resolve and safe to share across
// goroutines and runs.
type ResolvedStream struct {
	Name string
	Ops  []dram.Op

	rows dram.RowMap // the geometry every op was checked against
	plan dram.Plan   // Ops lowered; rows are physical, so always sound
}

// Resolve validates the binding against the program and geometry, then
// flattens every op to physical rows and checks it with
// dram.RowMap.CheckOp — every condition the DRAM commands would
// otherwise check per issue, done once per (program, binding). The
// returned stream can run any number of times with RunResolved on any
// subarray of the same geometry holding operands at the bound rows.
//
// The control unit does not resolve per binding: it binds a Template,
// which is built once per program and geometry. Resolve remains the
// reference a template is checked against, and what a rejected
// template binding reports.
func Resolve(p *Program, b Binding, cfg dram.Config) (*ResolvedStream, error) {
	return resolve(p, b, cfg.RowMap())
}

// resolve is Resolve against a geometry's row map.
func resolve(p *Program, b Binding, rm dram.RowMap) (*ResolvedStream, error) {
	if err := b.validate(p, int(rm.T)); err != nil {
		return nil, err
	}
	st := &ResolvedStream{Name: p.Name, Ops: make([]dram.Op, len(p.Ops)), rows: rm}
	for i := range p.Ops {
		if err := flatten(&p.Ops[i], &st.Ops[i], &rm, b.row); err != nil {
			return nil, fmt.Errorf("uprog: op %d: %w", i, err)
		}
	}
	st.plan = rm.Plan(st.Ops, true)
	return st, nil
}

// flatten lowers one μOp to a dram.Op, mapping its row references with
// row, and checks it against rm with dram.RowMap.CheckOp.
func flatten(mop *MicroOp, op *dram.Op, rm *dram.RowMap, row func(Ref, *dram.RowMap) (int32, error)) error {
	switch mop.Kind {
	case OpAAP:
		op.Kind = dram.CmdAAP
		src, err := row(mop.Src, rm)
		if err != nil {
			return err
		}
		op.Src = src
	case OpAP, OpMajCopy:
		op.Kind = dram.CmdAP
		if mop.Kind == OpMajCopy {
			op.Kind = dram.CmdMajCopy
		}
		for j, idx := range mop.T {
			t, err := tRow(idx, rm)
			if err != nil {
				return err
			}
			op.T[j] = t
		}
	default:
		return fmt.Errorf("unknown kind %d", mop.Kind)
	}
	if mop.Kind != OpAP {
		if len(mop.Dsts) < 1 || len(mop.Dsts) > 3 {
			return fmt.Errorf("%d destinations, want 1-3", len(mop.Dsts))
		}
		for j, d := range mop.Dsts {
			r, err := row(d, rm)
			if err != nil {
				return err
			}
			op.Dsts[j] = r
		}
		op.NDst = uint8(len(mop.Dsts))
	}
	return rm.CheckOp(op)
}

// RunResolved executes a resolved command stream on one subarray. All
// validation and lowering happened in Resolve, so the plan goes straight
// to the subarray's command kernel; it issues exactly the same DRAM command
// sequence, row contents, Stats and trace as the interpretive Run under
// the stream's binding (pinned by the differential tests). Running a
// stream on a subarray of another geometry panics.
//
// Reentrancy matches Run: concurrent calls on distinct subarrays are
// safe; two concurrent runs on the same subarray race.
//
//simdram:zeroalloc
func RunResolved(sa *dram.Subarray, st *ResolvedStream) {
	if sa.RowMap() != st.rows {
		panic("uprog: stream resolved for a different geometry")
	}
	sa.Exec(&st.plan)
}
