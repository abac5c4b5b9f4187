package ops

import (
	"sync"
	"sync/atomic"

	"simdram/internal/dram"
)

// The process-wide μProgram cache behind SynthesizeCached and CostNs:
// one entry per (code, width, operand count, variant) the ISA can
// encode — widths 0..64, operand counts 0..3 and the four synthesis
// variants — with entry tables allocated one (code, variant) at a time
// on first use. A hit is a few atomic loads and takes no lock; a cold
// synthesis holds only its own entry's lock, so it never stalls
// lookups or syntheses of other keys. A key outside the table (four or
// more operands, a width outside 0..64, an unknown variant) is
// synthesized afresh on every call.
const (
	cacheWidths   = 65
	cacheArities  = 4
	cacheVariants = int(VariantNoReuse) + 1
)

// progEntry caches one key's synthesis and its modeled latencies.
type progEntry struct {
	mu    sync.Mutex // held through this entry's cold synthesis
	synth atomic.Pointer[Synthesized]
	costs atomic.Pointer[timedCost] // CostNs results, newest timing first
}

// timedCost is one CostNs result: the μProgram's latency under one
// set of timing constants.
type timedCost struct {
	t    dram.Timing
	ns   float64
	next *timedCost
}

// entryTable holds one (code, variant)'s entries, by width and
// operand count.
type entryTable [cacheWidths * cacheArities]progEntry

var progTable [256 * cacheVariants]atomic.Pointer[entryTable]

// entryIndex locates a key in progTable: the (code, variant) table and
// the entry within it, ok false for a key outside the table.
func entryIndex(code Code, width, n int, variant Variant) (table, entry int, ok bool) {
	if width < 0 || width >= cacheWidths || n < 0 || n >= cacheArities || int(variant) >= cacheVariants {
		return 0, 0, false
	}
	return int(code)*cacheVariants + int(variant), width*cacheArities + n, true
}

// lookupEntry returns a key's entry, nil when the key is outside the
// table or its (code, variant) table is not allocated yet.
//
//simdram:zeroalloc
func lookupEntry(code Code, width, n int, variant Variant) *progEntry {
	table, entry, ok := entryIndex(code, width, n, variant)
	if !ok {
		return nil
	}
	if t := progTable[table].Load(); t != nil {
		return &t[entry]
	}
	return nil
}

// entryFor is lookupEntry that allocates the key's (code, variant)
// table when it is missing.
func entryFor(code Code, width, n int, variant Variant) *progEntry {
	if e := lookupEntry(code, width, n, variant); e != nil {
		return e
	}
	table, entry, ok := entryIndex(code, width, n, variant)
	if !ok {
		return nil
	}
	progTable[table].CompareAndSwap(nil, new(entryTable))
	return &progTable[table].Load()[entry]
}

// cost returns the latency cached for timing t.
//
//simdram:zeroalloc
func (e *progEntry) cost(t dram.Timing) (float64, bool) {
	for c := e.costs.Load(); c != nil; c = c.next {
		if c.t == t {
			return c.ns, true
		}
	}
	return 0, false
}

// addCost caches ns as the latency under timing t, unless a
// concurrent caller already has.
func (e *progEntry) addCost(t dram.Timing, ns float64) {
	for {
		head := e.costs.Load()
		for c := head; c != nil; c = c.next {
			if c.t == t {
				return
			}
		}
		if e.costs.CompareAndSwap(head, &timedCost{t: t, ns: ns, next: head}) {
			return
		}
	}
}

// CostNs returns the modeled single-subarray latency of executing one
// instruction of operation d at the given width and operand count — the
// per-op cost a schedule optimizer weighs instructions with. The number
// comes from the operation's own (cached) μProgram under the module's
// timing constants, so the scheduler plans with the same measured
// per-op timings the execution engine bills, not with guesses. A
// repeated query is a lock-free table hit.
func CostNs(d Def, width, n int, variant Variant, t dram.Timing) (float64, error) {
	e := lookupEntry(d.Code, width, n, variant)
	if e != nil {
		if ns, ok := e.cost(t); ok {
			return ns, nil
		}
	}
	s, err := SynthesizeCached(d, width, n, variant)
	if err != nil {
		return 0, err
	}
	ns := s.Program.LatencyNs(t)
	if e = lookupEntry(d.Code, width, n, variant); e != nil {
		e.addCost(t, ns)
	}
	return ns, nil
}
