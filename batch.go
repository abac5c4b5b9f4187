package simdram

import (
	"sync"

	"simdram/internal/ctrl"
	"simdram/internal/isa"
	"simdram/internal/obs"
)

// BatchStats describes the cost of an ExecBatch call: instruction and
// command counts, the serial-equivalent BusyNs, the overlap-aware
// CriticalPathNs, and energy.
type BatchStats = ctrl.BatchStats

// ExecBatch executes a program of bbop instructions as one batch. The
// ISA layer extracts the data-hazard graph (read-after-write,
// write-after-write, write-after-read over object handles), and the
// control unit's scheduler issues instructions as their hazards
// resolve: the calling goroutine executes them, and idle workers of a
// process-wide pool take subarray groups that can run alongside —
// instructions touching disjoint (bank, subarray) sets overlap,
// dependent or bank-sharing instructions serialize. Results are
// indistinguishable from issuing the program through Exec in order;
// the returned stats report both the serial-equivalent and the
// overlap-aware latency.
//
// Before anything executes, the program passes the static IR verifier
// (see VerifiedPlans) and every instruction is resolved and bound, so
// an invalid program or a rejected binding fails with no DRAM command
// run and the System's stats unchanged. Once the batch starts it runs
// to completion: only cancellation, which ExecBatch never requests,
// stops a batch part-way.
//
// Concurrency: ExecBatch may be called from several goroutines on one
// System at once, as long as nothing else mutates the System meanwhile
// (no allocation, free or Store). The calls prepare
// concurrently and execute one batch at a time, so a call whose
// program shares no vector with the others' gets exactly the results
// and stats it would get alone.
func (s *System) ExecBatch(prog isa.Program) (BatchStats, error) {
	pp, err := s.prepareProgram(prog)
	if err != nil {
		return BatchStats{}, err
	}
	st, _, err := s.runPreparedAttr(pp, nil, nil)
	pp.release() // a one-shot program: nothing runs it again
	if err != nil {
		return BatchStats{}, err
	}
	return st, nil
}

// preparedProgram is a bbop program bound once for repeated execution:
// the control unit's prepared batch (schedule plus its own slab of
// bound μProgram views) and enough context to verify on every run that
// the objects it was resolved against are still the live ones.
// Compiled graphs and the Cluster's ExecBatch memo cache one of these
// so steady-state runs skip instruction resolution, binding
// validation, and scheduling entirely; a one-shot owner releases it
// after its run.
type preparedProgram struct {
	prep  *ctrl.Prepared // nil for a program of only trsp_init instructions
	jobOf []int          // instruction index → job index, -1 for trsp_init
	// opNs is the per-instruction latency buffer every run fills and
	// returns (0 for trsp_init); callers consume it before the next run.
	opNs []float64
	// binds pins every referenced handle to the Vector it resolved to:
	// a run after the vector was freed (or its handle recycled) must
	// fail loudly instead of computing on reallocated rows.
	binds []objBind
	// scratch records each touched subarray's scratch-row requirement,
	// re-verified per run because later allocations can claim the tail
	// rows the binding's scratch region resolved to.
	scratch []scratchNeed
}

// ppPool recycles released prepared programs with their tables.
var ppPool = sync.Pool{New: func() any { return new(preparedProgram) }}

// release recycles a program its owner ran and drops: the control
// unit's storage (see ctrl.Prepared.Release) and pp itself with its
// tables. The owner — a one-shot caller after its run, or a keeping
// owner (a Compiled, a memo entry) when it lets the program go — must
// hold no other reference to pp, or to the latencies a run returned.
// A program whose binds name slab Vectors is released together with
// the slab (see lowered.release), so no live program ever names a
// recycled Vector.
func (pp *preparedProgram) release() {
	if pp.prep != nil {
		pp.prep.Release()
	}
	clear(pp.binds) // drop the Vectors
	*pp = preparedProgram{jobOf: pp.jobOf[:0], opNs: pp.opNs[:0], binds: pp.binds[:0], scratch: pp.scratch[:0]}
	ppPool.Put(pp)
}

type objBind struct {
	h uint16
	v *Vector
}

type scratchNeed struct {
	bank, sub, need int
}

// prepScratch is what prepareProgramTraced needs only while it runs:
// the hazard graph, the control unit's job table with its dependency
// lists, the segment and base tables the jobs' segments are carved
// from, and the set of handles already pinned (a 12 KB bitset that
// would otherwise grow a fresh goroutine's stack). ctrl.Unit.Prepare
// keeps no reference into them, so they go back to prepPool as prepare
// returns.
type prepScratch struct {
	deps  [][]int
	flat  []int
	jobs  []ctrl.Job
	jdeps []int
	segs  segBufs
	bound isa.HandleSet
}

var prepPool = sync.Pool{New: func() any { return new(prepScratch) }}

// recycle drops sc's references to μPrograms and bindings, empties its
// handle set and returns it to prepPool.
func (sc *prepScratch) recycle() {
	clear(sc.deps)
	clear(sc.jobs)
	clear(sc.segs.segs)
	sc.bound.Reset()
	prepPool.Put(sc)
}

// prepareProgram validates and resolves a bbop program down to a
// control-unit prepared batch — the bind-once half of execution.
func (s *System) prepareProgram(prog isa.Program) (*preparedProgram, error) {
	return s.prepareProgramTraced(prog, nil, nil, 0)
}

// prepareProgramTraced is prepareProgram with the serving layer's
// per-job trace threaded through: the control unit's μProgram binding
// (the bind-once cost a cache hit amortizes) is accounted to a
// "resolve" span under parent. tr may be nil. Every program passes the
// IR verifier before it is bound. lw, when non-nil, is the graph
// lowering prog came from: the check then reads definedness off the
// lowering's tables, and is skipped when verifyLowered has already
// checked the lowering.
//
// The returned program and its tables come from programs earlier
// owners released (see preparedProgram.release), and prepare's own
// working tables are recycled as it returns, so preparing between
// released programs of similar size allocates almost nothing.
func (s *System) prepareProgramTraced(prog isa.Program, lw *lowered, tr *obs.Trace, parent int) (*preparedProgram, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	sc := prepPool.Get().(*prepScratch)
	defer sc.recycle()
	sc.deps, sc.flat = prog.DepsInto(sc.deps, sc.flat)
	deps := sc.deps
	if lw == nil {
		if err := s.verifyProgram(prog, deps, nil); err != nil {
			return nil, err
		}
	} else if !lw.verified {
		if err := s.verifyProgram(prog, deps, lw); err != nil {
			return nil, err
		}
	}
	pp := ppPool.Get().(*preparedProgram)
	pp.jobOf = sized(pp.jobOf, len(prog))
	pp.opNs = sized(pp.opNs, len(prog))
	// Compiled programs use about one handle per instruction.
	pp.binds = grown(pp.binds, len(prog)+4)
	nDeps := 0
	for _, d := range deps {
		nDeps += len(d)
	}
	jobs := grown(sc.jobs, len(prog))
	jdeps := grown(sc.jdeps, nDeps)
	// Size the segment buffers from the program: an operation runs on
	// each segment of its destination and binds up to three source
	// bases in each.
	nSegs := 0
	for _, in := range prog {
		if v := s.object(in.Dst); in.Op != isa.OpTrspInit && v != nil {
			nSegs += len(v.segs)
		}
	}
	segs := &sc.segs
	segs.segs, segs.bases = grown(segs.segs, nSegs), grown(segs.bases, 3*nSegs)
	pp.scratch = grown(pp.scratch, nSegs)
	defer func() { sc.jobs, sc.jdeps = jobs, jdeps }()
	fail := func(err error) (*preparedProgram, error) {
		pp.release()
		return nil, err
	}
	bound := &sc.bound // handles already pinned
	bind := func(v *Vector) {
		if !bound.Has(v.handle) {
			bound.Mark(v.handle)
			pp.binds = append(pp.binds, objBind{h: v.handle, v: v})
		}
	}
	var srcBuf [3]*Vector
	for i, in := range prog {
		if in.Op == isa.OpTrspInit {
			v := s.object(in.Src[0])
			if v == nil {
				return fail(errorf("instruction %d: bbop_trsp_init: unknown object %d", i, in.Src[0]))
			}
			bind(v)
			// trsp_init only validates the object (see Exec): it writes
			// nothing, so dropping it from the job graph loses no hazard.
			pp.jobOf[i] = -1
			continue
		}
		d, dst, srcs, err := s.resolve(in, &srcBuf)
		if err != nil {
			return fail(errorf("instruction %d (%s): %w", i, in, err))
		}
		p, jsegs, err := s.prepareOp(d, dst, srcs, segs)
		if err != nil {
			return fail(errorf("instruction %d (%s): %w", i, in, err))
		}
		bind(dst)
		for _, src := range srcs {
			bind(src)
		}
		for _, seg := range dst.segs {
			pp.scratch = append(pp.scratch, scratchNeed{bank: seg.bank, sub: seg.sub, need: p.NumScratch})
		}
		d0 := len(jdeps)
		for _, dep := range deps[i] {
			if j := pp.jobOf[dep]; j >= 0 {
				jdeps = append(jdeps, j)
			}
		}
		pp.jobOf[i] = len(jobs)
		jobs = append(jobs, ctrl.Job{Program: p, Segments: jsegs, Deps: jdeps[d0:len(jdeps):len(jdeps)]})
	}
	pp.scratch = maxScratchNeeds(pp.scratch, s.cfg.DRAM.Banks, s.cfg.DRAM.SubarraysPerBank)
	if len(jobs) == 0 {
		return pp, nil // program of only trsp_init instructions
	}
	rspan := tr.Begin("resolve", parent)
	prep, err := s.cu.Prepare(jobs)
	tr.End(rspan)
	if err != nil {
		return fail(err)
	}
	pp.prep = prep
	return pp, nil
}

// sized returns s resized to n zeroed elements, reusing its backing
// array when it is large enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// grown returns s emptied, with room for n elements: its own array
// when large enough, otherwise a fresh one.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// scratchShort reports whether some operation of prog would find
// fewer free scratch rows above its destination than its μProgram
// needs — the shortage prepareOp reports — so a caller that can free
// rows does so before the program is verified and prepared.
// Instructions that do not resolve are left for prepare to report.
func (s *System) scratchShort(prog isa.Program) bool {
	var srcBuf [3]*Vector
	for _, in := range prog {
		if in.Op == isa.OpTrspInit {
			continue
		}
		d, dst, srcs, err := s.resolve(in, &srcBuf)
		if err != nil || len(srcs) == 0 {
			continue
		}
		p, err := s.cu.Program(d, srcs[0].width, len(srcs))
		if err != nil {
			continue
		}
		for _, seg := range dst.segs {
			if s.rows[seg.bank][seg.sub].tailFree() < p.NumScratch {
				return true
			}
		}
	}
	return false
}

// maxScratchNeeds folds the per-instruction scratch needs into one
// entry per subarray, holding the largest need, in (bank, sub) order —
// so checkPrepared names the same subarray every time when several
// lack headroom. The fold is one pass over a dense table of the
// geometry's banks × subs subarrays; the result reuses needs' array.
func maxScratchNeeds(needs []scratchNeed, banks, subs int) []scratchNeed {
	var buf [256]int // the paper geometry's 16 × 16 subarrays
	most := buf[:0]
	if n := banks * subs; n <= len(buf) {
		most = buf[:n]
	} else {
		most = make([]int, n)
	}
	for k := range most {
		most[k] = -1
	}
	for _, sc := range needs {
		k := sc.bank*subs + sc.sub
		most[k] = max(most[k], sc.need)
	}
	out := needs[:0]
	for k, m := range most {
		if m >= 0 {
			out = append(out, scratchNeed{bank: k / subs, sub: k % subs, need: m})
		}
	}
	return out
}

// runPreparedAttr executes a prepared program — the run-many half —
// with an optional device-attribution sink: on success the run's
// per-bank busy time, commands, and energy are accumulated into at (see
// ctrl.Attribution). It re-verifies the prepared program first (see
// checkPrepared), then dispatches it. A nil sink keeps the run
// allocation-free.
func (s *System) runPreparedAttr(pp *preparedProgram, cancel <-chan struct{}, at *ctrl.Attribution) (ctrl.BatchStats, []float64, error) {
	if err := s.checkPrepared(pp); err != nil {
		return ctrl.BatchStats{}, nil, err
	}
	return s.execPrepared(pp, cancel, at)
}

// checkPrepared re-verifies object liveness and scratch headroom — the
// only state that can legally drift between runs of a prepared program.
func (s *System) checkPrepared(pp *preparedProgram) error {
	for _, b := range pp.binds {
		if s.object(b.h) != b.v || b.v.freed {
			return errorf("prepared program is stale: object %d was freed or replaced", b.h)
		}
	}
	return s.checkScratch(pp)
}

// checkScratch is checkPrepared's scratch-headroom half.
func (s *System) checkScratch(pp *preparedProgram) error {
	for _, sc := range pp.scratch {
		if s.rows[sc.bank][sc.sub].tailFree() < sc.need {
			return errorf("prepared program is stale: subarray (%d,%d) lacks %d scratch rows", sc.bank, sc.sub, sc.need)
		}
	}
	return nil
}

// execPrepared dispatches a prepared program that passed checkPrepared.
// The returned per-instruction latencies are pp's own buffer, valid
// until its next run.
func (s *System) execPrepared(pp *preparedProgram, cancel <-chan struct{}, at *ctrl.Attribution) (ctrl.BatchStats, []float64, error) {
	if pp.prep == nil {
		return ctrl.BatchStats{}, pp.opNs, nil // program of only trsp_init instructions
	}
	st, durNs, err := s.cu.Run(pp.prep, ctrl.RunOpts{Cancel: cancel, Attr: at})
	if err != nil {
		return st, nil, err
	}
	for i, j := range pp.jobOf {
		if j >= 0 {
			pp.opNs[i] = durNs[j]
		}
	}
	return st, pp.opNs, nil
}
