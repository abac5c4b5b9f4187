package vertical

import "fmt"

// UnitConfig parameterizes the transposition unit's cost model.
//
// The unit sits in the memory controller between the last-level cache and
// the channel. It transposes data at cache-line granularity using an
// 8×8-byte shuffle network; the paper reports its latency is small and
// overlapped with DRAM burst transfers, so the default per-line costs are
// a single controller cycle of latency and a small fixed energy. Every
// transposition pays for every line it moves.
type UnitConfig struct {
	LatencyPerLineNs float64 // pipeline cost per 64 B cache line
	EnergyPerLinePJ  float64 // shuffle-network energy per 64 B line
}

// DefaultUnitConfig returns the paper-calibrated defaults.
func DefaultUnitConfig() UnitConfig {
	return UnitConfig{
		LatencyPerLineNs: 0.85, // one 1.2 GHz controller cycle
		EnergyPerLinePJ:  20,   // 64 B through a 64×64 swap network
	}
}

// UnitStats accumulates transposition-unit activity.
type UnitStats struct {
	LinesTransposed int64
	LatencyNs       float64
	EnergyPJ        float64
}

// Unit is the transposition unit: it performs horizontal↔vertical layout
// conversion and accounts its cost.
type Unit struct {
	cfg   UnitConfig
	Stats UnitStats
}

// NewUnit builds a transposition unit.
func NewUnit(cfg UnitConfig) *Unit { return &Unit{cfg: cfg} }

// touch charges a transposition of lines cache lines.
//
//simdram:zeroalloc
func (u *Unit) touch(lines int) {
	u.Stats.LinesTransposed += int64(lines)
	u.Stats.LatencyNs += float64(lines) * u.cfg.LatencyPerLineNs
	u.Stats.EnergyPJ += float64(lines) * u.cfg.EnergyPerLinePJ
}

// HToV transposes horizontal values into the caller's vertical rows
// (see ToVerticalInto), charging the cost model.
func (u *Unit) HToV(rows [][]uint64, vals []uint64, width int) error {
	if err := ToVerticalInto(rows, vals, width); err != nil {
		return err
	}
	u.touch(linesFor(len(vals), width))
	return nil
}

// Splat is HToV of n copies of val without the transpose (see
// SplatInto): the rows and the charge are exactly those of the
// transposition it replaces.
func (u *Unit) Splat(rows [][]uint64, val uint64, width, n int) error {
	if err := SplatInto(rows, val, width, n); err != nil {
		return err
	}
	u.touch(linesFor(n, width))
	return nil
}

// VToH transposes vertical rows back into the horizontal values dst
// (see ToHorizontalInto), charging the cost model.
func (u *Unit) VToH(dst []uint64, rows [][]uint64, width int) error {
	if err := ToHorizontalInto(dst, rows, width); err != nil {
		return err
	}
	u.touch(linesFor(len(dst), width))
	return nil
}

// linesFor returns how many 64 B cache lines n elements of the given
// width occupy in the horizontal layout.
func linesFor(n, width int) int {
	bytesPer := (width + 7) / 8
	total := n * bytesPer
	return (total + 63) / 64
}

func (u *Unit) String() string {
	return fmt.Sprintf("transposition-unit{lines=%d latency=%.1fns energy=%.1fpJ}",
		u.Stats.LinesTransposed, u.Stats.LatencyNs, u.Stats.EnergyPJ)
}
