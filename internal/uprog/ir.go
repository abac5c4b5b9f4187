// Package uprog implements SIMDRAM's Step 2: turning an optimized MIG
// into a μProgram — the sequence of AAP (activate-activate-precharge row
// copy) and AP (triple-row-activation majority) DRAM commands that
// evaluates the operation inside a subarray.
//
// μPrograms reference rows symbolically (source-operand bit i, destination
// bit i, scratch row k, compute row T[j], …); the control unit binds them
// to physical rows at issue time, so one μProgram serves every subarray
// and every operand placement. The code generator performs operand-to-row
// allocation with T-row reuse and liveness-driven spilling, minimizing the
// number of row activations — the metric that determines both latency and
// energy of in-DRAM execution.
package uprog

import (
	"fmt"
	"strings"

	"simdram/internal/dram"
)

// Space names a symbolic row region.
type Space uint8

// Row spaces. SpaceSrc rows are read-only operand bits; SpaceDst and
// SpaceScratch live in ordinary data rows; the rest are the compute
// region.
const (
	SpaceSrc Space = iota
	SpaceDst
	SpaceScratch
	SpaceT
	SpaceDCC  // true row of a dual-contact cell pair
	SpaceDCCN // complement row of a dual-contact cell pair
	SpaceC0   // all-zeros control row
	SpaceC1   // all-ones control row
)

func (s Space) String() string {
	switch s {
	case SpaceSrc:
		return "src"
	case SpaceDst:
		return "dst"
	case SpaceScratch:
		return "scr"
	case SpaceT:
		return "T"
	case SpaceDCC:
		return "dcc"
	case SpaceDCCN:
		return "dccN"
	case SpaceC0:
		return "C0"
	case SpaceC1:
		return "C1"
	default:
		return fmt.Sprintf("space(%d)", uint8(s))
	}
}

// Ref is a symbolic row reference. Op selects the source operand for
// SpaceSrc; Idx is the bit index (SpaceSrc/SpaceDst), scratch slot,
// T-row index, or DCC pair index.
type Ref struct {
	Space Space
	Op    int
	Idx   int
}

func (r Ref) String() string {
	switch r.Space {
	case SpaceSrc:
		return fmt.Sprintf("src%d[%d]", r.Op, r.Idx)
	case SpaceDst:
		return fmt.Sprintf("dst[%d]", r.Idx)
	case SpaceC0, SpaceC1:
		return r.Space.String()
	default:
		return fmt.Sprintf("%s%d", r.Space, r.Idx)
	}
}

// OpKind discriminates μOps.
type OpKind uint8

// μOp kinds.
const (
	OpAAP     OpKind = iota // copy Src row into Dsts rows
	OpAP                    // triple-row activation majority over T rows
	OpMajCopy               // Ambit fused op: TRA over T rows, copy result to Dsts
)

// MicroOp is one DRAM command of a μProgram.
type MicroOp struct {
	Kind OpKind
	Src  Ref    // OpAAP source
	Dsts []Ref  // OpAAP / OpMajCopy destinations (1-3 rows)
	T    [3]int // OpAP / OpMajCopy: T-row indices
}

func (op MicroOp) String() string {
	switch op.Kind {
	case OpAAP:
		parts := make([]string, len(op.Dsts))
		for i, d := range op.Dsts {
			parts[i] = d.String()
		}
		return fmt.Sprintf("AAP %s -> %s", op.Src, strings.Join(parts, ","))
	case OpAP:
		return fmt.Sprintf("AP  T%d,T%d,T%d", op.T[0], op.T[1], op.T[2])
	case OpMajCopy:
		parts := make([]string, len(op.Dsts))
		for i, d := range op.Dsts {
			parts[i] = d.String()
		}
		return fmt.Sprintf("MAJ T%d,T%d,T%d -> %s", op.T[0], op.T[1], op.T[2], strings.Join(parts, ","))
	default:
		return fmt.Sprintf("op(%d)", op.Kind)
	}
}

// Program is a complete μProgram for one SIMDRAM operation.
type Program struct {
	Name       string
	Width      int   // widest source element width in bits
	SrcWidths  []int // per-operand widths; nil means all Width
	DstWidth   int   // destination element width in bits
	NumSrc     int   // number of source operands
	NumScratch int   // peak scratch rows used
	Ops        []MicroOp
}

// SrcWidth returns the element width of source operand k.
func (p *Program) SrcWidth(k int) int {
	if k < len(p.SrcWidths) {
		return p.SrcWidths[k]
	}
	return p.Width
}

// NumAAP returns the number of AAP commands (including fused MajCopy,
// which has AAP latency).
func (p *Program) NumAAP() int {
	n := 0
	for i := range p.Ops { // by index: a MicroOp is too large to copy per op
		if k := p.Ops[i].Kind; k == OpAAP || k == OpMajCopy {
			n++
		}
	}
	return n
}

// NumAP returns the number of AP commands.
func (p *Program) NumAP() int {
	n := 0
	for i := range p.Ops {
		if p.Ops[i].Kind == OpAP {
			n++
		}
	}
	return n
}

// LatencyNs returns the μProgram's execution latency on one subarray
// under the given timing. Commands are strictly sequential inside a
// subarray (a single row buffer).
func (p *Program) LatencyNs(t dram.Timing) float64 {
	return float64(p.NumAAP())*t.AAPLatency() + float64(p.NumAP())*t.APLatency()
}

// EnergyPJ returns the energy of one execution on one subarray.
func (p *Program) EnergyPJ(e dram.Energy) float64 {
	var total float64
	for i := range p.Ops {
		op := &p.Ops[i]
		switch op.Kind {
		case OpAAP:
			total += e.AAPEnergy(len(op.Dsts))
		case OpAP:
			total += e.APEnergy()
		case OpMajCopy:
			total += e.MajCopyEnergy()
		}
	}
	return total
}

// Validate checks internal consistency against a device configuration.
func (p *Program) Validate(cfg dram.Config) error {
	if p.Width < 1 || p.Width > 64 {
		return fmt.Errorf("uprog: width %d out of range", p.Width)
	}
	for i, op := range p.Ops {
		switch op.Kind {
		case OpAAP:
			if len(op.Dsts) < 1 || len(op.Dsts) > 3 {
				return fmt.Errorf("uprog: op %d: AAP with %d destinations", i, len(op.Dsts))
			}
			if err := p.checkRef(op.Src, cfg, true); err != nil {
				return fmt.Errorf("uprog: op %d src: %w", i, err)
			}
			for _, d := range op.Dsts {
				if err := p.checkRef(d, cfg, false); err != nil {
					return fmt.Errorf("uprog: op %d dst: %w", i, err)
				}
				if d.Space == SpaceSrc {
					return fmt.Errorf("uprog: op %d writes a source operand row", i)
				}
				if d.Space == SpaceC0 || d.Space == SpaceC1 {
					return fmt.Errorf("uprog: op %d writes a control row", i)
				}
			}
		case OpAP, OpMajCopy:
			seen := map[int]bool{}
			for _, tr := range op.T {
				if tr < 0 || tr >= cfg.NumTRows {
					return fmt.Errorf("uprog: op %d: T row %d out of range", i, tr)
				}
				if seen[tr] {
					return fmt.Errorf("uprog: op %d: duplicate T row %d", i, tr)
				}
				seen[tr] = true
			}
			if op.Kind == OpMajCopy {
				if len(op.Dsts) < 1 || len(op.Dsts) > 3 {
					return fmt.Errorf("uprog: op %d: MajCopy with %d destinations", i, len(op.Dsts))
				}
				for _, d := range op.Dsts {
					if err := p.checkRef(d, cfg, false); err != nil {
						return fmt.Errorf("uprog: op %d dst: %w", i, err)
					}
					if d.Space == SpaceSrc || d.Space == SpaceC0 || d.Space == SpaceC1 {
						return fmt.Errorf("uprog: op %d writes a read-only row", i)
					}
				}
			}
		default:
			return fmt.Errorf("uprog: op %d: unknown kind %d", i, op.Kind)
		}
	}
	return nil
}

func (p *Program) checkRef(r Ref, cfg dram.Config, isSrc bool) error {
	switch r.Space {
	case SpaceSrc:
		if r.Op < 0 || r.Op >= p.NumSrc {
			return fmt.Errorf("operand %d out of range [0,%d)", r.Op, p.NumSrc)
		}
		if r.Idx < 0 || r.Idx >= p.SrcWidth(r.Op) {
			return fmt.Errorf("source bit %d out of range [0,%d)", r.Idx, p.SrcWidth(r.Op))
		}
	case SpaceDst:
		if r.Idx < 0 || r.Idx >= p.DstWidth {
			return fmt.Errorf("destination bit %d out of range [0,%d)", r.Idx, p.DstWidth)
		}
	case SpaceScratch:
		if r.Idx < 0 || r.Idx >= p.NumScratch {
			return fmt.Errorf("scratch row %d out of range [0,%d)", r.Idx, p.NumScratch)
		}
	case SpaceT:
		if r.Idx < 0 || r.Idx >= cfg.NumTRows {
			return fmt.Errorf("T row %d out of range [0,%d)", r.Idx, cfg.NumTRows)
		}
	case SpaceDCC, SpaceDCCN:
		if r.Idx < 0 || r.Idx >= cfg.NumDCCPairs {
			return fmt.Errorf("DCC pair %d out of range [0,%d)", r.Idx, cfg.NumDCCPairs)
		}
	case SpaceC0, SpaceC1:
		if !isSrc {
			return fmt.Errorf("control row used as destination")
		}
	default:
		return fmt.Errorf("unknown space %d", r.Space)
	}
	return nil
}

// RowsNeeded returns the number of data rows the program needs beyond the
// compute region: operand bits, destination bits, and scratch.
func (p *Program) RowsNeeded() int {
	return p.NumSrc*p.Width + p.DstWidth + p.NumScratch
}

// String renders a human-readable listing.
func (p *Program) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "μprogram %s: width=%d srcs=%d dst=%d scratch=%d AAP=%d AP=%d\n",
		p.Name, p.Width, p.NumSrc, p.DstWidth, p.NumScratch, p.NumAAP(), p.NumAP())
	for i, op := range p.Ops {
		fmt.Fprintf(&sb, "  %4d: %s\n", i, op)
	}
	return sb.String()
}
