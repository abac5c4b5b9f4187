package simdram

import (
	"cmp"
	"slices"

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
// On error the batch stops issuing: instructions already in flight
// complete, later ones are skipped, and all failures are reported in one
// joined error annotated with the instruction that caused them.
//
// Concurrency: ExecBatch may be called from several goroutines on one
// System at once, as long as nothing else mutates the System meanwhile
// (no allocation, free, Store or SetVerifyPlans). The calls prepare
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
	// verify is the system's SetVerifyPlans setting when it was prepared.
	verify bool
}

// release recycles the control unit's storage of a program its owner
// ran once and drops (see ctrl.Prepared.Release). Only such one-shot
// owners call it: a program a Compiled or a memo keeps must never be
// released, since it may run again.
func (pp *preparedProgram) release() {
	if pp.prep != nil {
		pp.prep.Release()
	}
}

// rebind re-points pp's object pins at objs, a later binding of the
// same plan to the same placement: pp.binds[i] pins objs[at[i]]. The
// control unit's prepared batch is placement-bound and names no
// handle, so the pins are all a rebinding changes; checkPrepared then
// holds pp to the new objects.
func (pp *preparedProgram) rebind(objs []*Vector, at []int) {
	for i, k := range at {
		pp.binds[i] = objBind{h: objs[k].handle, v: objs[k]}
	}
}

// sameMode reports whether s still has the verify setting pp was
// prepared under.
func (s *System) sameMode(pp *preparedProgram) bool {
	return pp.verify == s.verifyPlans
}

type objBind struct {
	h uint16
	v *Vector
}

type scratchNeed struct {
	bank, sub, need int
}

// prepareProgram validates and resolves a bbop program down to a
// control-unit prepared batch — the bind-once half of execution.
func (s *System) prepareProgram(prog isa.Program) (*preparedProgram, error) {
	return s.prepareProgramTraced(prog, nil, nil, 0)
}

// prepareProgramTraced is prepareProgram with the serving layer's
// per-job trace threaded through: the control unit's μProgram binding
// (the bind-once cost a cache hit amortizes) is accounted to a
// "resolve" span under parent. tr may be nil. lw, when non-nil, is the
// graph lowering prog came from: the plan check then uses the
// compiler's definedness map, and is skipped when verifyLowered has
// already checked the lowering.
func (s *System) prepareProgramTraced(prog isa.Program, lw *lowered, tr *obs.Trace, parent int) (*preparedProgram, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	deps := prog.Deps()
	var err error
	switch {
	case lw == nil:
		err = s.maybeVerify(prog, deps, nil)
	case !lw.verified:
		err = s.maybeVerify(prog, deps, lw.defined)
	}
	if err != nil {
		return nil, err
	}
	jobs := make([]ctrl.Job, 0, len(prog))
	pp := &preparedProgram{
		jobOf: make([]int, len(prog)), opNs: make([]float64, len(prog)),
		// Compiled programs use about one handle per instruction.
		binds:  make([]objBind, 0, len(prog)+4),
		verify: s.verifyPlans,
	}
	nDeps := 0
	for _, d := range deps {
		nDeps += len(d)
	}
	jdeps := make([]int, 0, nDeps)
	var segs segBufs
	var bound [1 << 16 / 64]uint64 // bitset over handles already pinned
	bind := func(v *Vector) {
		if w, bit := &bound[v.handle/64], uint64(1)<<(v.handle%64); *w&bit == 0 {
			*w |= bit
			pp.binds = append(pp.binds, objBind{h: v.handle, v: v})
		}
	}
	var srcBuf [3]*Vector
	for i, in := range prog {
		if in.Op == isa.OpTrspInit {
			v, ok := s.objects[in.Src[0]]
			if !ok {
				return nil, errorf("instruction %d: bbop_trsp_init: unknown object %d", i, in.Src[0])
			}
			bind(v)
			// trsp_init only validates the object (see Exec): it writes
			// nothing, so dropping it from the job graph loses no hazard.
			pp.jobOf[i] = -1
			continue
		}
		d, dst, srcs, err := s.resolve(in, &srcBuf)
		if err != nil {
			return nil, errorf("instruction %d (%s): %w", i, in, err)
		}
		p, jsegs, err := s.prepareOp(d, dst, srcs, &segs)
		if err != nil {
			return nil, errorf("instruction %d (%s): %w", i, in, err)
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
	pp.scratch = maxScratchNeeds(pp.scratch)
	if len(jobs) == 0 {
		return pp, nil // program of only trsp_init instructions
	}
	rspan := tr.Begin("resolve", parent)
	prep, err := s.cu.Prepare(jobs, s.verifyPlans)
	tr.End(rspan)
	if err != nil {
		return nil, err
	}
	pp.prep = prep
	return pp, nil
}

// maxScratchNeeds folds the per-instruction scratch needs into one
// entry per subarray, holding the largest need, in (bank, sub) order —
// so checkPrepared names the same subarray every time when several
// lack headroom.
func maxScratchNeeds(needs []scratchNeed) []scratchNeed {
	slices.SortFunc(needs, func(a, b scratchNeed) int {
		return cmp.Or(cmp.Compare(a.bank, b.bank), cmp.Compare(a.sub, b.sub), cmp.Compare(b.need, a.need))
	})
	return slices.CompactFunc(needs, func(a, b scratchNeed) bool { return a.bank == b.bank && a.sub == b.sub })
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
		if v, ok := s.objects[b.h]; !ok || v != b.v || b.v.freed {
			return errorf("prepared program is stale: object %d was freed or replaced", b.h)
		}
	}
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
