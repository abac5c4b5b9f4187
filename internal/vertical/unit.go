package vertical

import "fmt"

// UnitConfig parameterizes the transposition unit's cost model.
//
// The unit sits in the memory controller between the last-level cache and
// the channel. It transposes data at cache-line granularity using an
// 8×8-byte shuffle network; the paper reports its latency is small and
// overlapped with DRAM burst transfers, so the default per-line costs are
// a single controller cycle of latency and a small fixed energy.
type UnitConfig struct {
	LatencyPerLineNs float64 // pipeline cost per 64 B cache line
	EnergyPerLinePJ  float64 // shuffle-network energy per 64 B line
	BufferLines      int     // recently-transposed line buffer (object tracker)
}

// DefaultUnitConfig returns the paper-calibrated defaults.
func DefaultUnitConfig() UnitConfig {
	return UnitConfig{
		LatencyPerLineNs: 0.85, // one 1.2 GHz controller cycle
		EnergyPerLinePJ:  20,   // 64 B through a 64×64 swap network
		BufferLines:      64,
	}
}

// UnitStats accumulates transposition-unit activity.
type UnitStats struct {
	LinesTransposed int64
	BufferHits      int64
	LatencyNs       float64
	EnergyPJ        float64
}

// Unit is the transposition unit: it performs horizontal↔vertical layout
// conversion, accounts its cost, and keeps a small buffer of line tags so
// repeated transpositions of the same lines are counted as hits (the
// object-tracker optimization).
type Unit struct {
	cfg   UnitConfig
	Stats UnitStats

	// ring holds the buffered line tags in FIFO order, oldest at
	// ring[head] once the buffer is full; tags indexes them.
	ring []uint64
	head int
	tags map[uint64]bool
}

// NewUnit builds a transposition unit.
func NewUnit(cfg UnitConfig) *Unit {
	return &Unit{cfg: cfg, ring: make([]uint64, 0, max(cfg.BufferLines, 0)), tags: make(map[uint64]bool)}
}

// lineTag identifies a cache line by (object id, line index).
func lineTag(objID uint64, line int) uint64 { return objID<<24 | uint64(line)&0xFFFFFF }

func (u *Unit) touch(objID uint64, lines int) {
	for l := 0; l < lines; l++ {
		tag := lineTag(objID, l)
		if u.tags[tag] {
			u.Stats.BufferHits++
			continue
		}
		u.Stats.LinesTransposed++
		u.Stats.LatencyNs += u.cfg.LatencyPerLineNs
		u.Stats.EnergyPJ += u.cfg.EnergyPerLinePJ
		if u.cfg.BufferLines > 0 {
			if len(u.ring) < u.cfg.BufferLines {
				u.ring = append(u.ring, tag)
			} else {
				delete(u.tags, u.ring[u.head])
				u.ring[u.head] = tag
				u.head = (u.head + 1) % len(u.ring)
			}
			u.tags[tag] = true
		}
	}
}

// HToV transposes horizontal values into the caller's vertical rows
// (see ToVerticalInto), charging the cost model. objID distinguishes
// objects for the line buffer.
func (u *Unit) HToV(objID uint64, rows [][]uint64, vals []uint64, width int) error {
	if err := ToVerticalInto(rows, vals, width); err != nil {
		return err
	}
	u.touch(objID, linesFor(len(vals), width))
	return nil
}

// Splat is HToV of n copies of val without the transpose (see
// SplatInto): the rows and the charge are exactly those of the
// transposition it replaces.
func (u *Unit) Splat(objID uint64, rows [][]uint64, val uint64, width, n int) error {
	if err := SplatInto(rows, val, width, n); err != nil {
		return err
	}
	u.touch(objID, linesFor(n, width))
	return nil
}

// VToH transposes vertical rows back into the horizontal values dst
// (see ToHorizontalInto), charging the cost model.
func (u *Unit) VToH(objID uint64, dst []uint64, rows [][]uint64, width int) error {
	if err := ToHorizontalInto(dst, rows, width); err != nil {
		return err
	}
	u.touch(objID, linesFor(len(dst), width))
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
	return fmt.Sprintf("transposition-unit{lines=%d hits=%d latency=%.1fns energy=%.1fpJ}",
		u.Stats.LinesTransposed, u.Stats.BufferHits, u.Stats.LatencyNs, u.Stats.EnergyPJ)
}
