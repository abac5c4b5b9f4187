package uprog

import (
	"fmt"

	"simdram/internal/dram"
)

// ResolvedStream is a μProgram bound once to a concrete placement: the
// bind-once/run-many IR of the execution hot path. Resolve validates
// the (program, binding, geometry) triple and flattens every op to a
// checked dram.Op, so RunResolved hands the whole stream to the DRAM
// command kernel with no per-command validation, no error paths and no
// allocation. A stream is immutable after Resolve and safe to share
// across goroutines and runs.
type ResolvedStream struct {
	Name string
	Ops  []dram.Op

	rows   dram.RowMap // the geometry every op was checked against
	counts dram.Stats  // command counters one run adds, from Resolve
}

// Resolve validates the binding against the program and geometry, then
// flattens every op to physical rows and checks it with
// dram.RowMap.CheckOp — every condition the DRAM commands would
// otherwise check per issue, done once per (program, binding). The
// returned stream is the run-many artifact: execute it any number of
// times with RunResolved on any subarray of the same geometry holding
// operands at the bound rows.
func Resolve(p *Program, b Binding, cfg dram.Config) (*ResolvedStream, error) {
	if err := b.Validate(p, cfg); err != nil {
		return nil, err
	}
	rm := cfg.RowMap()
	st := &ResolvedStream{Name: p.Name, Ops: make([]dram.Op, len(p.Ops)), rows: rm}
	for i := range p.Ops {
		mop, op := &p.Ops[i], &st.Ops[i]
		switch mop.Kind {
		case OpAAP:
			op.Kind = dram.CmdAAP
			src, err := b.row(mop.Src, &rm)
			if err != nil {
				return nil, fmt.Errorf("uprog: op %d: %w", i, err)
			}
			op.Src = src
		case OpAP, OpMajCopy:
			op.Kind = dram.CmdAP
			if mop.Kind == OpMajCopy {
				op.Kind = dram.CmdMajCopy
			}
			for j, idx := range mop.T {
				t, err := tRow(idx, &rm)
				if err != nil {
					return nil, fmt.Errorf("uprog: op %d: %w", i, err)
				}
				op.T[j] = t
			}
		default:
			return nil, fmt.Errorf("uprog: op %d: unknown kind %d", i, mop.Kind)
		}
		if mop.Kind != OpAP {
			if len(mop.Dsts) < 1 || len(mop.Dsts) > 3 {
				return nil, fmt.Errorf("uprog: op %d: %d destinations, want 1-3", i, len(mop.Dsts))
			}
			for j, d := range mop.Dsts {
				row, err := b.row(d, &rm)
				if err != nil {
					return nil, fmt.Errorf("uprog: op %d: %w", i, err)
				}
				op.Dsts[j] = row
			}
			op.NDst = uint8(len(mop.Dsts))
		}
		if err := rm.CheckOp(op); err != nil {
			return nil, fmt.Errorf("uprog: op %d: %w", i, err)
		}
	}
	st.counts = dram.CountOps(st.Ops)
	return st, nil
}

// RunResolved executes a resolved command stream on one subarray: the
// tight run-many loop of the bind-once/run-many pipeline. All
// validation happened in Resolve, so the stream goes straight to the
// subarray's command kernel; it issues exactly the same DRAM command
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
	sa.Exec(st.Ops, st.counts)
}
