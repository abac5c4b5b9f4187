package ops

import (
	"sync"

	"simdram/internal/dram"
)

// costKey identifies one CostNs result.
type costKey struct {
	code    Code
	width   int
	n       int
	variant Variant
	timing  dram.Timing
}

// costs memoizes CostNs: a μProgram's latency walks every one of its
// commands, and the scheduler, the admission estimate and the profile
// model price the same few op classes over and over.
var (
	costMu sync.RWMutex
	costs  = map[costKey]float64{}
)

// CostNs returns the modeled single-subarray latency of executing one
// instruction of operation d at the given width and operand count — the
// per-op cost a schedule optimizer weighs instructions with. The number
// comes from the operation's own (cached) μProgram under the module's
// timing constants, so the scheduler plans with the same measured
// per-op timings the execution engine bills, not with guesses.
func CostNs(d Def, width, n int, variant Variant, t dram.Timing) (float64, error) {
	key := costKey{d.Code, width, n, variant, t}
	costMu.RLock()
	ns, ok := costs[key]
	costMu.RUnlock()
	if ok {
		return ns, nil
	}
	s, err := SynthesizeCached(d, width, n, variant)
	if err != nil {
		return 0, err
	}
	ns = s.Program.LatencyNs(t)
	costMu.Lock()
	costs[key] = ns
	costMu.Unlock()
	return ns, nil
}
