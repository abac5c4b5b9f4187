package uprog

import (
	"fmt"

	"simdram/internal/dram"
)

// Binding maps a μProgram's symbolic spaces onto physical rows of one
// subarray. Source operand k occupies rows SrcBase[k]..SrcBase[k]+W-1
// (bit i of every lane in row SrcBase[k]+i), and similarly for the
// destination and scratch regions.
type Binding struct {
	SrcBase     []int
	DstBase     int
	ScratchBase int
}

// Resolve maps a symbolic reference to a physical row index. Compute
// rows are a pure function of the geometry, so resolution needs only
// the configuration, not a materialized subarray.
func (b Binding) Resolve(r Ref, cfg dram.Config) (int, error) {
	rm := cfg.RowMap()
	row, err := b.row(r, &rm)
	return int(row), err
}

// row is Resolve against a precomputed row map. Compute-region indices
// are range-checked here, since an out-of-range index would still land
// on some physical row; data-region rows are narrowed with dram.OpRow
// and left to dram.RowMap.CheckOp.
func (b Binding) row(r Ref, rm *dram.RowMap) (int32, error) {
	switch r.Space {
	case SpaceSrc:
		if r.Op < 0 || r.Op >= len(b.SrcBase) {
			return 0, fmt.Errorf("uprog: binding has no base for operand %d", r.Op)
		}
		return dram.OpRow(b.SrcBase[r.Op] + r.Idx), nil
	case SpaceDst:
		return dram.OpRow(b.DstBase + r.Idx), nil
	case SpaceScratch:
		return dram.OpRow(b.ScratchBase + r.Idx), nil
	default:
		return computeRow(r, rm)
	}
}

// computeRow maps a compute-region reference to its row: a pure
// function of the geometry, whatever the binding.
func computeRow(r Ref, rm *dram.RowMap) (int32, error) {
	switch r.Space {
	case SpaceT:
		return tRow(r.Idx, rm)
	case SpaceDCC, SpaceDCCN:
		row, ok := rm.DCCRow(r.Idx, r.Space == SpaceDCCN)
		if !ok {
			return 0, fmt.Errorf("uprog: DCC pair %d out of range", r.Idx)
		}
		return row, nil
	case SpaceC0:
		return rm.C0, nil
	case SpaceC1:
		return rm.C0 + 1, nil
	default:
		return 0, fmt.Errorf("uprog: unknown space %v", r.Space)
	}
}

// tRow returns the physical row of T row idx.
func tRow(idx int, rm *dram.RowMap) (int32, error) {
	row, ok := rm.TRow(idx)
	if !ok {
		return 0, fmt.Errorf("uprog: T row %d out of range", idx)
	}
	return row, nil
}

// regionKind classifies a binding region for the overlap check: source
// regions may alias each other (the same operand bound twice), anything
// else aliasing anything is an error.
type regionKind uint8

const (
	regionSrc regionKind = iota
	regionDst
	regionScratch
)

// bindRegion is one contiguous row range a binding claims.
type bindRegion struct {
	kind        regionKind
	op          int // operand index for regionSrc
	start, size int
}

func (r bindRegion) name() string {
	switch r.kind {
	case regionSrc:
		return fmt.Sprintf("src%d", r.op)
	case regionDst:
		return "dst"
	default:
		return "scratch"
	}
}

// maxBindRegions is the region count Validate checks without
// allocating: three sources — the most the ISA encodes — plus the
// destination and scratch.
const maxBindRegions = 5

// Validate checks that the binding's regions fit in the subarray's data
// rows and do not overlap. It allocates only to report an error or for
// a binding of more than three sources.
func (b Binding) Validate(p *Program, cfg dram.Config) error {
	return b.validate(p, cfg.DataRows())
}

// validate is Validate against a data-row count.
func (b Binding) validate(p *Program, dataRows int) error {
	if len(b.SrcBase) < p.NumSrc {
		return fmt.Errorf("uprog: binding supplies %d operand bases, program needs %d", len(b.SrcBase), p.NumSrc)
	}
	var buf [maxBindRegions]bindRegion
	regions := buf[:0]
	for k, base := range b.SrcBase {
		regions = append(regions, bindRegion{kind: regionSrc, op: k, start: base, size: p.SrcWidth(k)})
	}
	regions = append(regions, bindRegion{kind: regionDst, start: b.DstBase, size: p.DstWidth})
	if p.NumScratch > 0 {
		regions = append(regions, bindRegion{kind: regionScratch, start: b.ScratchBase, size: p.NumScratch})
	}
	for _, r := range regions {
		if r.start < 0 || r.start+r.size > dataRows {
			return fmt.Errorf("uprog: region %s [%d,%d) outside data rows [0,%d)", r.name(), r.start, r.start+r.size, dataRows)
		}
	}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			a, c := regions[i], regions[j]
			if a.start < c.start+c.size && c.start < a.start+a.size {
				// Sources may alias each other (same operand twice) but
				// nothing may alias the destination or scratch.
				if a.kind != regionSrc || c.kind != regionSrc {
					return fmt.Errorf("uprog: regions %s and %s overlap", a.name(), c.name())
				}
			}
		}
	}
	return nil
}

// Run executes the μProgram on one subarray under the binding. The caller
// is responsible for having loaded vertical operand data into the source
// rows; results appear in the destination rows.
//
// Reentrancy: Run is safe for concurrent use across *distinct*
// subarrays. It mutates only the subarray it is given (row data and that
// subarray's Stats); the Program is never written (programs come from
// the synthesis cache and are shared across goroutines) and the Binding
// is read-only. Two concurrent Runs on the same subarray race — the
// ctrl scheduler serializes those.
func Run(p *Program, sa *dram.Subarray, b Binding) error {
	cfg := *sa.Config()
	if err := b.Validate(p, cfg); err != nil {
		return err
	}
	for i, op := range p.Ops {
		switch op.Kind {
		case OpAAP:
			src, err := b.Resolve(op.Src, cfg)
			if err != nil {
				return fmt.Errorf("uprog: op %d: %w", i, err)
			}
			dsts := make([]int, len(op.Dsts))
			for j, d := range op.Dsts {
				if dsts[j], err = b.Resolve(d, cfg); err != nil {
					return fmt.Errorf("uprog: op %d: %w", i, err)
				}
			}
			sa.AAP(src, dsts...)
		case OpAP:
			sa.AP(sa.TRow(op.T[0]), sa.TRow(op.T[1]), sa.TRow(op.T[2]))
		case OpMajCopy:
			dsts := make([]int, len(op.Dsts))
			var err error
			for j, d := range op.Dsts {
				if dsts[j], err = b.Resolve(d, cfg); err != nil {
					return fmt.Errorf("uprog: op %d: %w", i, err)
				}
			}
			sa.MajCopy(sa.TRow(op.T[0]), sa.TRow(op.T[1]), sa.TRow(op.T[2]), dsts...)
		default:
			return fmt.Errorf("uprog: op %d: unknown kind %d", i, op.Kind)
		}
	}
	return nil
}
