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
	"sync"

	"simdram/internal/dram"
	"simdram/internal/ops"
	"simdram/internal/uprog"
)

// Unit is a SIMDRAM control unit attached to one DRAM module.
type Unit struct {
	mod     *dram.Module
	variant ops.Variant

	// runMu serializes Run: a unit executes one batch at a time, so
	// concurrent callers never race on Stats, on a Prepared's dispatch
	// scratch, or on the rows their batches share.
	runMu sync.Mutex

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
	return &Unit{mod: mod, variant: variant}
}

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
