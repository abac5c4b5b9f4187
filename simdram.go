// Package simdram is an end-to-end implementation of SIMDRAM (Hajinazar,
// Oliveira, et al., ASPLOS 2021): a framework for bit-serial SIMD
// processing using DRAM.
//
// A System bundles a simulated DRAM module, the memory-controller
// transposition unit, and the SIMDRAM control unit. Programs allocate
// Vectors (whose elements live vertically: all bits of an element in one
// DRAM column), store horizontal data into them (transparently
// transposed), and invoke operations that execute entirely inside DRAM
// subarrays via majority (triple-row activation) and row-copy commands:
//
//	sys, _ := simdram.New(simdram.DefaultConfig())
//	a, _ := sys.AllocVector(1_000_000, 32)
//	b, _ := sys.AllocVector(1_000_000, 32)
//	dst, _ := sys.AllocVector(1_000_000, 32)
//	a.Store(dataA)
//	b.Store(dataB)
//	stats, _ := sys.Run("addition", dst, a, b)
//	sum, _ := dst.Load()
//
// The three framework steps of the paper map onto the packages this
// facade wires together: Step 1 (MAJ/NOT synthesis) in internal/mig,
// Step 2 (μProgram generation) in internal/uprog, Step 3 (execution) in
// internal/ctrl on the internal/dram substrate.
package simdram

import (
	"fmt"
	"sync/atomic"

	"simdram/internal/ctrl"
	"simdram/internal/dram"
	"simdram/internal/graph"
	"simdram/internal/ops"
	"simdram/internal/vertical"
)

// DefaultPlanCacheSize bounds the compiled-plan caches a System,
// Cluster, or Server creates by default: enough for every distinct
// request shape of a realistic serving mix, small enough that the
// cached graphs stay negligible next to the simulated DRAM itself.
const DefaultPlanCacheSize = 128

// Profile-feedback defaults: a shape's plan is recompiled with
// observed per-op costs once at least DefaultProfileMinJobs executed
// jobs have been folded into its profile and some op's mean measured
// latency diverges from the static cost model by more than
// DefaultProfileThreshold (relative). The static model is
// per-subarray; long vectors whose segments serialize on a bank run
// integer multiples of it, so a generous threshold separates real
// divergence from noise-free equality.
const (
	DefaultProfileThreshold = 0.25
	DefaultProfileMinJobs   = 3
	// defaultProfileShapes bounds the shapes a profile store retains —
	// above the plan cache so profiles survive their plan's eviction.
	defaultProfileShapes = 4 * DefaultPlanCacheSize
)

// Config configures a System.
type Config struct {
	DRAM          dram.Config
	Transposition vertical.UnitConfig
	// Variant selects the execution flavor: VariantSIMDRAM (default) or
	// VariantAmbit for the in-DRAM baseline. Exposed for experiments.
	Variant ops.Variant
	// ReductionN is the operand count used when an N-ary operation is
	// invoked through the 2-operand Run API with extra sources.
	ReductionN int
}

// DefaultConfig returns a laptop-friendly geometry: 4 banks × 4 subarrays
// of 512 rows × 8192 columns (8 MiB of simulated DRAM, 32768 SIMD lanes).
func DefaultConfig() Config {
	d := dram.PaperConfig()
	d.Cols = 8192
	d.SubarraysPerBank = 4
	d.Banks = 4
	return Config{
		DRAM:          d,
		Transposition: vertical.DefaultUnitConfig(),
		Variant:       ops.VariantSIMDRAM,
	}
}

// PaperConfig returns the paper's full geometry (16 banks × 16 subarrays
// of 512 × 65536). Note this materializes 1 GiB of simulated DRAM; use it
// for fidelity experiments, not unit tests.
func PaperConfig() Config {
	return Config{
		DRAM:          dram.PaperConfig(),
		Transposition: vertical.DefaultUnitConfig(),
		Variant:       ops.VariantSIMDRAM,
	}
}

// System is a CPU + SIMDRAM-enabled memory subsystem.
type System struct {
	cfg Config
	mod *dram.Module
	cu  *ctrl.Unit
	tu  *vertical.Unit

	// rows[bank][sub] allocates the subarray's data rows.
	rows [][]*rowAlloc

	objects map[uint16]*Vector
	handles handleSpace
	serials uint64 // last Vector.serial handed out

	// rowBuf is the vertical-row scratch every Store, splat and Load
	// transposes through (see transposeRows), grown to the widest
	// vector seen. Like the transposition unit it serves, it belongs to
	// whichever goroutine is using the System.
	rowBuf [][]uint64

	// plans memoizes compiled expression shapes (see PlanCacheStats);
	// profiles aggregates their measured per-op latencies and drives
	// profile-guided recompiles (see ProfileStats).
	plans    *graph.PlanCache
	profiles *graph.ProfileStore

	// verified counts the lowered or batch-prepared programs that
	// passed the static IR verifier (internal/verify).
	verified atomic.Int64
}

// handleSpace hands out 16-bit object handles, recycling freed ones so
// long-lived programs never exhaust the space while fewer than 65535
// objects are live. Handle 0 stays reserved as the invalid handle.
type handleSpace struct {
	next uint16
	free []uint16
}

// alloc returns a fresh or recycled handle, or an error once 65535
// objects are live at once. Fresh handles are preferred and freed ones
// recycled only after the fresh range runs out, so a stale handle in
// an old program keeps failing loudly ("unknown object") instead of
// silently resolving to whatever object was allocated next.
func (h *handleSpace) alloc() (uint16, error) {
	if h.next < ^uint16(0) {
		h.next++
		return h.next, nil
	}
	if n := len(h.free); n > 0 {
		id := h.free[n-1]
		h.free = h.free[:n-1]
		return id, nil
	}
	return 0, errorf("object handles exhausted (%d live objects)", h.next)
}

// release returns a handle for reuse.
func (h *handleSpace) release(id uint16) { h.free = append(h.free, id) }

// nextSerial returns a Vector serial no object of s has had.
func (s *System) nextSerial() uint64 {
	s.serials++
	return s.serials
}

// transposeRows returns width rows of one DRAM row each from the
// System's reused scratch, valid until the next call.
func (s *System) transposeRows(width int) [][]uint64 {
	if len(s.rowBuf) < width {
		s.rowBuf = vertical.MakeRows(width, s.cfg.DRAM.WordsPerRow())
	}
	return s.rowBuf[:width]
}

// New builds a System.
func New(cfg Config) (*System, error) {
	if err := cfg.DRAM.Validate(); err != nil {
		return nil, err
	}
	mod, err := dram.NewModule(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:      cfg,
		mod:      mod,
		cu:       ctrl.New(mod, cfg.Variant),
		tu:       vertical.NewUnit(cfg.Transposition),
		objects:  make(map[uint16]*Vector),
		plans:    graph.NewPlanCache(DefaultPlanCacheSize),
		profiles: graph.NewProfileStore(DefaultProfileThreshold, DefaultProfileMinJobs, defaultProfileShapes),
	}
	s.rows = make([][]*rowAlloc, cfg.DRAM.Banks)
	for b := range s.rows {
		s.rows[b] = make([]*rowAlloc, cfg.DRAM.SubarraysPerBank)
		for sub := range s.rows[b] {
			s.rows[b][sub] = newRowAlloc(cfg.DRAM.DataRows())
		}
	}
	return s, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Close marks the end of the System's use. A System owns no goroutines
// — batches run on the calling goroutine, helped by idle workers of a
// process-wide pool — so Close releases nothing today; it is kept so
// callers can bracket a System's lifetime (Cluster.Close calls it). The
// System stays usable after Close.
func (s *System) Close() {}

// Module exposes the underlying DRAM module (for experiments and fault
// injection).
func (s *System) Module() *dram.Module { return s.mod }

// VerifiedPlans returns how many programs the static IR verifier has
// checked and passed since the system was built. Every program the
// graph compiler lowers and every batch ExecBatch prepares is checked
// (def-before-use, operand aliasing, width/arity/opcode consistency,
// binding bounds, and an independent recomputation of the RAW/WAW/WAR
// hazard edges cross-checked against the scheduler's dependence graph)
// before anything executes. A verification failure rejects the whole
// program with typed *verify.Diagnostic errors.
func (s *System) VerifiedPlans() int64 { return s.verified.Load() }

// TranspositionUnit exposes the transposition unit's statistics.
func (s *System) TranspositionUnit() *vertical.Unit { return s.tu }

// Lanes returns the total number of SIMD lanes (bitlines) that compute in
// parallel across all banks.
func (s *System) Lanes() int { return s.cfg.DRAM.Cols * s.cfg.DRAM.Banks }

// usedRows returns the total number of allocated data rows across every
// subarray — the load signal placement policies shard against.
func (s *System) usedRows() int {
	used := 0
	for _, bank := range s.rows {
		for _, a := range bank {
			used += a.inUse()
		}
	}
	return used
}

// segmentOrder maps segment index i to a (bank, subarray) pair,
// bank-major so consecutive segments land in different banks and execute
// in parallel.
func (s *System) segmentOrder(i int) (bank, sub int) {
	return i % s.cfg.DRAM.Banks, (i / s.cfg.DRAM.Banks) % s.cfg.DRAM.SubarraysPerBank
}

// Stats describes the cost of one operation or of the system so far.
type Stats struct {
	LatencyNs float64
	EnergyPJ  float64
	Commands  int64
}

// SystemStats returns cumulative control-unit and DRAM statistics.
func (s *System) SystemStats() Stats {
	cs := s.cu.Stats
	return Stats{LatencyNs: cs.BusyNs, EnergyPJ: s.mod.Stats().EnergyPJ, Commands: cs.Commands}
}

// Operations lists the names of all available operations.
func Operations() []string {
	cat := ops.Catalog()
	names := make([]string, len(cat))
	for i, d := range cat {
		names[i] = d.Name
	}
	return names
}

// errorf is fmt.Errorf with the package prefix.
func errorf(format string, args ...any) error {
	return fmt.Errorf("simdram: "+format, args...)
}
