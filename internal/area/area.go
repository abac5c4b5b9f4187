// Package area estimates the DRAM die area overhead of SIMDRAM's added
// hardware (paper §5: "less than 1% DRAM area overhead").
//
// Substitution note (docs/reproduction.md, "Area"): the paper synthesizes the added
// logic with an ASIC flow. We reproduce the bill-of-materials estimate:
// each added structure is counted in gate/SRAM-bit equivalents and
// converted to area with published logic and DRAM densities.
package area

import "fmt"

// Model holds density assumptions.
type Model struct {
	// DRAM die: a common 8 Gb DDR4 die is ≈ 60 mm².
	DieMM2 float64
	// Logic density on a DRAM process (logic is ~2× less dense than on a
	// comparable logic process): gates per mm².
	GatesPerMM2 float64
	// SRAM density on a DRAM process: bits per mm².
	SRAMBitsPerMM2 float64
}

// Default returns densities for a 1x-nm class DDR4 die.
func Default() Model {
	return Model{
		DieMM2:         60,
		GatesPerMM2:    400_000,
		SRAMBitsPerMM2: 1_200_000,
	}
}

// Component is one added hardware block.
type Component struct {
	Name     string
	Gates    int // combinational gate equivalents
	SRAMBits int // storage bits
}

// Components returns SIMDRAM's added hardware per DRAM chip:
//
//   - Row decoder extensions: Ambit-style B-group addressing latches for
//     the compute region rows in every subarray.
//   - Control unit: μProgram store + sequencer + μRegisters (sits in the
//     memory controller but the paper also accounts a per-chip share).
//   - Transposition unit: an 8×8-byte swap network plus line buffer.
func Components(subarraysPerChip, uProgramKB int) []Component {
	return []Component{
		{
			Name: "row decoder extensions",
			// ~24 extra address latches + drivers per subarray.
			Gates: subarraysPerChip * 24 * 6,
		},
		{
			Name:     "control unit (sequencer + μregisters)",
			Gates:    15_000,
			SRAMBits: uProgramKB * 1024 * 8,
		},
		{
			Name:  "transposition unit (swap network + tags)",
			Gates: 8_000,
			// 64-line transpose buffer of 64 B lines.
			SRAMBits: 64 * 64 * 8,
		},
	}
}

// Overhead reports the area of each component and the total fraction of
// the DRAM die.
type Overhead struct {
	Items    []Item
	TotalMM2 float64
	Fraction float64
}

// Item is one component's area.
type Item struct {
	Component Component
	MM2       float64
}

// Estimate computes the overhead of the given components under a model.
func Estimate(m Model, comps []Component) Overhead {
	var o Overhead
	for _, c := range comps {
		mm2 := float64(c.Gates)/m.GatesPerMM2 + float64(c.SRAMBits)/m.SRAMBitsPerMM2
		o.Items = append(o.Items, Item{Component: c, MM2: mm2})
		o.TotalMM2 += mm2
	}
	o.Fraction = o.TotalMM2 / m.DieMM2
	return o
}

func (o Overhead) String() string {
	s := ""
	for _, it := range o.Items {
		s += fmt.Sprintf("  %-42s %.4f mm²\n", it.Component.Name, it.MM2)
	}
	s += fmt.Sprintf("  %-42s %.4f mm² (%.3f%% of die)", "total", o.TotalMM2, o.Fraction*100)
	return s
}
