// Package ctrl implements the SIMDRAM control unit (paper Step 3): the
// memory-controller logic that receives bbop instructions, looks up the
// operation's μProgram, binds symbolic rows to physical rows in every
// target subarray, and sequences the DRAM commands.
//
// Timing model: subarrays in different banks execute commands in lockstep
// (bank-level parallelism); subarrays within one bank share the bank's
// row-command bandwidth and serialize. Energy is fully additive and comes
// from the DRAM model's per-command accounting.
package ctrl

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"simdram/internal/dram"
	"simdram/internal/ops"
	"simdram/internal/uprog"
)

// Unit is a SIMDRAM control unit attached to one DRAM module.
type Unit struct {
	mod     *dram.Module
	variant ops.Variant

	mu      sync.Mutex // guards workers
	workers *Pool

	// sc caches resolved command streams per (program, binding) so
	// repeated jobs skip validation and symbolic resolution (see
	// resolved.go).
	sc streamCache

	Stats ExecStats
}

// ExecStats accumulates control-unit activity.
type ExecStats struct {
	Instructions int64
	Commands     int64
	BusyNs       float64 // wall-clock time the unit kept banks busy
	EnergyPJ     float64
}

// Add accumulates other into s.
func (s *ExecStats) Add(other ExecStats) {
	s.Instructions += other.Instructions
	s.Commands += other.Commands
	s.BusyNs += other.BusyNs
	s.EnergyPJ += other.EnergyPJ
}

// Sub returns s minus other — the activity between two snapshots of a
// unit's Stats, which is how a caller attributes a raw (non-prepared)
// execution window to whoever requested it.
func (s ExecStats) Sub(other ExecStats) ExecStats {
	return ExecStats{
		Instructions: s.Instructions - other.Instructions,
		Commands:     s.Commands - other.Commands,
		BusyNs:       s.BusyNs - other.BusyNs,
		EnergyPJ:     s.EnergyPJ - other.EnergyPJ,
	}
}

// New builds a control unit for the module using the given synthesis
// variant (VariantSIMDRAM for the paper's flow, VariantAmbit for the
// in-DRAM baseline).
func New(mod *dram.Module, variant ops.Variant) *Unit {
	u := &Unit{mod: mod, variant: variant}
	// Idle pool workers reference only the Pool, not the Unit, so an
	// abandoned Unit is collectable; this finalizer then shuts its pool
	// down. Callers that create many units should still Close explicitly
	// for deterministic reclamation.
	runtime.SetFinalizer(u, (*Unit).Close)
	return u
}

// Module returns the attached DRAM module.
func (u *Unit) Module() *dram.Module { return u.mod }

// pool returns the unit's persistent worker pool, starting it on first
// use so units that never execute (analytic PerfModel runs, encoding
// tests) cost no goroutines. Worker count is capped at the module's
// subarray count — the maximum number of concurrently executable
// groups — so small geometries on big hosts don't hold idle
// goroutines.
func (u *Unit) pool() *Pool {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.workers == nil {
		size := runtime.NumCPU()
		if max := u.mod.NumBanks() * u.mod.SubarraysPerBank(); size > max {
			size = max
		}
		u.workers = NewPool(size)
	}
	return u.workers
}

// Close stops the unit's worker pool and releases its goroutines. A
// later Execute transparently starts a fresh pool.
func (u *Unit) Close() {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.workers != nil {
		u.workers.Close()
		u.workers = nil
	}
}

// Variant returns the synthesis variant this unit executes.
func (u *Unit) Variant() ops.Variant { return u.variant }

// Program returns the (cached) μProgram for an operation at the given
// width and operand count.
func (u *Unit) Program(d ops.Def, width, n int) (*uprog.Program, error) {
	s, err := ops.SynthesizeCached(d, width, n, u.variant)
	if err != nil {
		return nil, err
	}
	return s.Program, nil
}

// Segment names one subarray's worth of work: which subarray, and how the
// program's symbolic spaces bind to its rows.
type Segment struct {
	Bank, Sub int
	Binding   uprog.Binding
}

// groupBySubarray buckets segments by their (bank, subarray) pair,
// validating coordinates, and returns the groups in deterministic
// bank-major order alongside the per-bank segment counts.
func (u *Unit) groupBySubarray(segs []Segment) ([][]Segment, map[int]int, error) {
	perBank := map[int]int{}
	bySub := map[[2]int][]Segment{}
	for _, seg := range segs {
		if seg.Bank < 0 || seg.Bank >= u.mod.NumBanks() || seg.Sub < 0 || seg.Sub >= u.mod.SubarraysPerBank() {
			return nil, nil, fmt.Errorf("ctrl: segment (%d,%d) out of range", seg.Bank, seg.Sub)
		}
		bySub[[2]int{seg.Bank, seg.Sub}] = append(bySub[[2]int{seg.Bank, seg.Sub}], seg)
		perBank[seg.Bank]++
	}
	keys := make([][2]int, 0, len(bySub))
	for k := range bySub {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	groups := make([][]Segment, len(keys))
	for i, k := range keys {
		groups[i] = bySub[k]
	}
	return groups, perBank, nil
}

// runGroups executes the μProgram over each subarray group on the
// persistent worker pool — one task per group, since distinct subarrays
// are independent state — and joins every failure (not just the first).
// Execution goes through the unit's resolved-stream cache unless the
// interpretive knob is set; errors surface identically either way.
func (u *Unit) runGroups(p *uprog.Program, groups [][]Segment) error {
	pool := u.pool()
	interp := u.Interpretive()
	var wg sync.WaitGroup
	errs := make(chan error, len(groups))
	for _, group := range groups {
		group := group
		wg.Add(1)
		pool.Run(func() {
			defer wg.Done()
			for _, seg := range group {
				sa := u.mod.Subarray(seg.Bank, seg.Sub)
				if interp {
					if err := uprog.Run(p, sa, seg.Binding); err != nil {
						errs <- fmt.Errorf("ctrl: bank %d subarray %d: %w", seg.Bank, seg.Sub, err)
						return
					}
					continue
				}
				st, err := u.resolvedStream(p, seg.Binding)
				if err != nil {
					errs <- fmt.Errorf("ctrl: bank %d subarray %d: %w", seg.Bank, seg.Sub, err)
					return
				}
				uprog.RunResolved(sa, st)
			}
		})
	}
	wg.Wait()
	close(errs)
	var all []error
	for err := range errs {
		all = append(all, err)
	}
	return errors.Join(all...)
}

// jobCost is the timing and command model for one instruction shared by
// the serial (Execute) and batched (plan) paths: segments within one
// bank serialize on the bank's row-command bandwidth, banks overlap.
// latNs is the μProgram's one-subarray latency (uprog.Program.LatencyNs).
func jobCost(p *uprog.Program, latNs float64, nSegs int, perBank map[int]int) (durNs float64, commands int64) {
	maxPerBank := 0
	for _, c := range perBank {
		if c > maxPerBank {
			maxPerBank = c
		}
	}
	return latNs * float64(maxPerBank), int64(len(p.Ops)) * int64(nSegs)
}

// Execute runs the μProgram on every segment, functionally and with full
// command accounting. In the modeled hardware, segments in distinct
// banks proceed in parallel and segments within one bank serialize; in
// the simulator, distinct subarrays are independent state, so their
// functional execution runs concurrently on the unit's persistent worker
// pool (serialized only when two segments share a subarray).
func (u *Unit) Execute(p *uprog.Program, segs []Segment) (ExecStats, error) {
	if len(segs) == 0 {
		return ExecStats{}, fmt.Errorf("ctrl: no segments to execute")
	}
	before := u.mod.Stats()
	groups, perBank, err := u.groupBySubarray(segs)
	if err != nil {
		return ExecStats{}, err
	}
	if err := u.runGroups(p, groups); err != nil {
		return ExecStats{}, err
	}
	durNs, commands := jobCost(p, p.LatencyNs(u.mod.Config().Timing), len(segs), perBank)
	delta := u.mod.Stats().Sub(before)
	st := ExecStats{
		Instructions: 1,
		Commands:     commands,
		BusyNs:       durNs,
		EnergyPJ:     delta.EnergyPJ,
	}
	u.Stats.Add(st)
	return st, nil
}

// PerfModel computes paper-scale performance numbers for a μProgram
// analytically, without materializing DRAM arrays. It is the scaling path
// used by the benchmark harness: the same latency/energy constants govern
// both this model and functional execution, so small functional runs
// validate the model's inputs.
type PerfModel struct {
	Cfg   dram.Config
	Banks int // banks used in parallel (the paper sweeps 1, 4, 16)
}

// Throughput returns operations per second for bulk execution of p: all
// banks compute on full rows concurrently, one element per bitline, with
// the mandatory-refresh tax applied (sustained rate).
func (m PerfModel) Throughput(p *uprog.Program) float64 {
	lanes := float64(m.Cfg.Cols) * float64(m.Banks)
	return lanes / (p.LatencyNs(m.Cfg.Timing) * m.Cfg.Timing.RefreshFactor() * 1e-9)
}

// LatencyNs returns the sustained time to process n elements: subarray
// batches of Cols lanes, spread across banks, serialized within each
// bank, stretched by the refresh tax.
func (m PerfModel) LatencyNs(p *uprog.Program, n int) float64 {
	segments := (n + m.Cfg.Cols - 1) / m.Cfg.Cols
	rounds := (segments + m.Banks - 1) / m.Banks
	return p.LatencyNs(m.Cfg.Timing) * float64(rounds) * m.Cfg.Timing.RefreshFactor()
}

// EnergyPJ returns the energy to process n elements. Partially filled
// subarrays still activate full rows (the paper's accounting does the
// same: activation energy is per-row, not per-lane).
func (m PerfModel) EnergyPJ(p *uprog.Program, n int) float64 {
	segments := (n + m.Cfg.Cols - 1) / m.Cfg.Cols
	return p.EnergyPJ(m.Cfg.Energy) * float64(segments)
}

// OpsPerJoule returns operations per joule — the energy-efficiency
// metric the paper reports.
func (m PerfModel) OpsPerJoule(p *uprog.Program) float64 {
	perLane := p.EnergyPJ(m.Cfg.Energy) / float64(m.Cfg.Cols) // pJ per element
	return 1e12 / perLane
}
