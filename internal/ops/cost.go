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

// progEntry caches one key's synthesis.
type progEntry struct {
	mu    sync.Mutex // held through this entry's cold synthesis
	synth atomic.Pointer[Synthesized]
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

// CostNs returns the modeled single-subarray latency of executing one
// instruction of operation d at the given width and operand count — the
// per-op cost a schedule optimizer weighs instructions with. The number
// comes from the operation's own (cached) μProgram under the module's
// timing constants, so the scheduler plans with the same measured
// per-op timings the execution engine bills, not with guesses. It is
// uprog.Program.LatencyNs computed from the AAP and AP counts Synthesize
// took, so a cached key costs a table hit and two multiply-adds.
func CostNs(d Def, width, n int, variant Variant, t dram.Timing) (float64, error) {
	s, err := SynthesizeCached(d, width, n, variant)
	if err != nil {
		return 0, err
	}
	return t.CommandsNs(s.numAAP, s.numAP), nil
}
