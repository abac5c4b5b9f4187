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
	tags tagSet
}

// NewUnit builds a transposition unit.
func NewUnit(cfg UnitConfig) *Unit {
	n := max(cfg.BufferLines, 0)
	return &Unit{cfg: cfg, ring: make([]uint64, 0, n), tags: newTagSet(n)}
}

// lineTag identifies a cache line by (object id, line index).
func lineTag(objID uint64, line int) uint64 { return objID<<24 | uint64(line)&0xFFFFFF }

// touch charges a transposition of an object's first lines lines: a
// buffered line is a hit, any other is transposed and enters the
// buffer, evicting its oldest line when the buffer is full.
//
//simdram:zeroalloc
func (u *Unit) touch(objID uint64, lines int) {
	for l := 0; l < lines; l++ {
		tag := lineTag(objID, l)
		if u.tags.has(tag) {
			u.Stats.BufferHits++
			continue
		}
		u.Stats.LinesTransposed++
		u.Stats.LatencyNs += u.cfg.LatencyPerLineNs
		u.Stats.EnergyPJ += u.cfg.EnergyPerLinePJ
		if u.cfg.BufferLines > 0 {
			if len(u.ring) < u.cfg.BufferLines {
				u.ring = append(u.ring, tag) //simdram:prealloc NewUnit reserves BufferLines
			} else {
				u.tags.remove(u.ring[u.head])
				u.ring[u.head] = tag
				u.head = (u.head + 1) % len(u.ring)
			}
			u.tags.add(tag)
		}
	}
}

// tagSet is the line buffer's index: a set of line tags in a fixed
// open-addressing table at most half full, so a lookup, insert or
// delete probes a short run whatever the buffer's size. Deletion
// shifts the run's later entries back instead of leaving tombstones.
type tagSet struct {
	slots []tagSlot // len a power of two
	shift uint      // 64 - log2(len(slots))
}

type tagSlot struct {
	tag  uint64
	full bool
}

// newTagSet returns an empty set with room for n tags.
func newTagSet(n int) tagSet {
	size, shift := 1, uint(64)
	for size < 2*n {
		size, shift = size*2, shift-1
	}
	return tagSet{slots: make([]tagSlot, size), shift: shift}
}

// home returns tag's first probe slot, by Fibonacci hashing.
func (s *tagSet) home(tag uint64) int {
	return int(tag * 0x9E3779B97F4A7C15 >> s.shift) // a shift of 64 gives 0
}

// find returns tag's slot, or the empty slot that ends its probe run.
func (s *tagSet) find(tag uint64) int {
	m := len(s.slots) - 1
	i := s.home(tag)
	for s.slots[i].full && s.slots[i].tag != tag {
		i = (i + 1) & m
	}
	return i
}

func (s *tagSet) has(tag uint64) bool { return s.slots[s.find(tag)].full }

// add inserts tag, which must be absent; the set must hold fewer tags
// than it has room for.
func (s *tagSet) add(tag uint64) { s.slots[s.find(tag)] = tagSlot{tag: tag, full: true} }

// remove deletes tag, which must be present, and shifts back each later
// entry of its probe run that the hole now separates from its home.
func (s *tagSet) remove(tag uint64) {
	m := len(s.slots) - 1
	i := s.find(tag)
	for j := (i + 1) & m; s.slots[j].full; j = (j + 1) & m {
		if (j-s.home(s.slots[j].tag))&m >= (j-i)&m {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i].full = false
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
