package ctrl

import (
	"errors"
	"fmt"
	"slices"

	"simdram/internal/uprog"
)

// Job is one bbop instruction resolved for batched execution: its
// μProgram, the subarray segments it runs on, and the indices of earlier
// jobs it must complete after (data hazards over the objects it touches,
// computed by the ISA layer). Deps must refer to earlier jobs only
// (every dep < the job's own index), which keeps the graph acyclic by
// construction.
type Job struct {
	Program  *uprog.Program
	Segments []Segment
	Deps     []int
}

// BatchStats reports the cost of one Run under the paper's timing
// model.
type BatchStats struct {
	Instructions int64
	Commands     int64
	// BusyNs is the serial-equivalent latency: the sum of every
	// instruction's own busy time, i.e. what a one-at-a-time Exec loop
	// would accumulate.
	BusyNs float64
	// CriticalPathNs is the overlap-aware makespan: instructions whose
	// segments share a bank serialize on that bank's row-command
	// bandwidth, bank-disjoint instructions overlap, and the batch
	// finishes when the last bank goes idle.
	CriticalPathNs float64
	EnergyPJ       float64
}

// Speedup returns the modeled gain of batched over serial issue:
// BusyNs / CriticalPathNs. A zero critical path makes the ratio
// undefined; an all-zero batch (nothing executed) reports 1 — no work,
// no gain — while a zero path with nonzero busy time reports 0, so
// inconsistent stats surface as an impossible speedup instead of
// masquerading as neutral.
func (s BatchStats) Speedup() float64 {
	if s.CriticalPathNs == 0 {
		if s.BusyNs == 0 {
			return 1
		}
		return 0
	}
	return s.BusyNs / s.CriticalPathNs
}

// MergeParallel folds o into s as a batch that executed concurrently on
// an independent channel: instruction and command counts, energy, and
// the serial-equivalent time are additive, while the makespan of two
// concurrently running batches is the maximum of their critical paths.
// This is the aggregation rule a multi-channel cluster uses to report
// honest whole-fabric latency.
func (s *BatchStats) MergeParallel(o BatchStats) {
	s.Instructions += o.Instructions
	s.Commands += o.Commands
	s.BusyNs += o.BusyNs
	s.EnergyPJ += o.EnergyPJ
	if o.CriticalPathNs > s.CriticalPathNs {
		s.CriticalPathNs = o.CriticalPathNs
	}
}

// ErrCanceled reports that batch execution stopped because the caller's
// cancellation signal fired: in-flight work completed, unissued jobs
// were skipped.
var ErrCanceled = errors.New("ctrl: batch canceled")

// batchPlan is the scheduler's precomputed view of a batch: per-job
// subarray groups, the full constraint graph, and the deterministic
// timing solution.
type batchPlan struct {
	groups [][][]Segment // job → subarray groups (each group one subarray)
	preds  [][]int       // job → constraint predecessors (deps + subarray order)
	durNs  []float64     // job → busy time on its busiest bank
	finish []float64     // job → modeled completion time
	busyNs float64
	spanNs float64
	nCmds  int64
	// Per-bank attribution of the batch under the timing model: modeled
	// busy time (μProgram latency × segments placed on the bank) and
	// command counts. Static per plan — energy, which depends on the
	// executed commands, is measured per run instead.
	bankBusy []float64
	bankCmds []int64
}

// plan validates the jobs and computes the constraint graph and timing
// model. Timing is resolved deterministically in program order — an
// in-order dispatch greedy schedule — so batch latency never depends on
// the host's dynamic goroutine interleaving: job i starts when its
// hazard predecessors have finished and every bank it touches is free,
// runs for its μProgram latency times the segment count on its busiest
// bank, and occupies its banks until it finishes.
func (u *Unit) plan(jobs []Job) (*batchPlan, error) {
	n, banks := len(jobs), u.mod.NumBanks()
	pl := &batchPlan{
		groups:   make([][][]Segment, n),
		preds:    make([][]int, n),
		durNs:    make([]float64, n),
		finish:   make([]float64, n),
		bankBusy: make([]float64, banks),
		bankCmds: make([]int64, banks),
	}
	timing := u.mod.Config().Timing
	// lastOnSub[bank*subs+sub] is one plus the last job that touched the
	// subarray (0: none yet); bankFree[bank] is when the bank goes idle.
	subs := u.mod.SubarraysPerBank()
	lastOnSub := make([]int, banks*subs)
	bankFree := make([]float64, banks)
	for i, job := range jobs {
		if job.Program == nil || len(job.Segments) == 0 {
			return nil, fmt.Errorf("ctrl: job %d has no program or segments", i)
		}
		groups, perBank, err := u.groupBySubarray(job.Segments)
		if err != nil {
			return nil, fmt.Errorf("ctrl: job %d: %w", i, err)
		}
		pl.groups[i] = groups

		// Constraint predecessors: declared data hazards plus program-order
		// edges between jobs sharing a subarray (the simulator's state
		// hazard; in hardware the same pair also serializes on the bank).
		var preds []int
		for _, d := range job.Deps {
			if d < 0 || d >= i {
				return nil, fmt.Errorf("ctrl: job %d: dep %d is not an earlier job", i, d)
			}
			preds = appendUnique(preds, d)
		}
		for _, g := range groups {
			last := &lastOnSub[g[0].Bank*subs+g[0].Sub]
			if *last > 0 {
				preds = appendUnique(preds, *last-1)
			}
			*last = i + 1
		}
		pl.preds[i] = preds

		// Timing: segments within one bank serialize on the bank's
		// row-command bandwidth, banks overlap, so the job is busy for its
		// μProgram's one-subarray latency times its busiest bank's segment
		// count. It starts once its predecessors finish and its banks are
		// free, then holds those banks for its duration. The latency comes
		// from the program's shared template, which counted its commands
		// once.
		latNs := u.template(job.Program).LatencyNs(timing)
		cmdsPerSeg := int64(len(job.Program.Ops))
		start, maxPerBank := 0.0, 0
		for _, d := range preds {
			start = max(start, pl.finish[d])
		}
		for b, segs := range perBank {
			if segs == 0 {
				continue
			}
			pl.bankBusy[b] += latNs * float64(segs)
			pl.bankCmds[b] += cmdsPerSeg * int64(segs)
			maxPerBank = max(maxPerBank, segs)
			start = max(start, bankFree[b])
		}
		pl.durNs[i] = latNs * float64(maxPerBank)
		pl.nCmds += cmdsPerSeg * int64(len(job.Segments))
		pl.finish[i] = start + pl.durNs[i]
		for b, segs := range perBank {
			if segs > 0 {
				bankFree[b] = pl.finish[i]
			}
		}
		pl.busyNs += pl.durNs[i]
		pl.spanNs = max(pl.spanNs, pl.finish[i])
	}
	return pl, nil
}

// appendUnique appends v to s unless s already holds it.
func appendUnique(s []int, v int) []int {
	if slices.Contains(s, v) {
		return s
	}
	return append(s, v)
}

// segView pairs one prepared segment with the view that runs its
// μProgram at its placement, or with the binding error to surface when
// its job issues.
type segView struct {
	view *uprog.View
	err  error
}

// groupResult is one subarray group's completion report, sent to the
// dispatch loop by whichever goroutine ran the group.
type groupResult struct {
	job      int
	bank     int
	energyPJ float64
	err      error
}

// Prepared is a batch bound once for repeated execution: the validated
// schedule (constraint graph and deterministic timing) plus one bound
// μProgram view per segment. Run executes it without re-planning or
// re-binding anything — the run-many half of the bind-once/run-many
// pipeline, which a compiled graph caches alongside its plan. The
// schedule and views are immutable; the dispatch scratch below makes
// each run allocation-free, and the unit's run lock keeps two runs
// from sharing it.
type Prepared struct {
	jobs  []Job
	pl    *batchPlan
	views [][][]segView // job → subarray group → segment

	// Static dispatch structure, derived from pl.preds once at Prepare.
	succs  [][]int    // job → jobs unblocked by its completion
	indeg0 []int      // job → predecessor count
	tasks  [][]func() // job → one task per subarray group

	// Per-run scratch, reset at the top of every Run.
	indeg      []int
	remain     []int // outstanding subarray groups per job
	ready      []int
	results    chan groupResult
	bankEnergy []float64 // bank → energy measured this run
}

// Jobs returns the number of jobs in the prepared batch.
func (pb *Prepared) Jobs() int { return len(pb.jobs) }

// Prepare validates and schedules a batch and binds every segment's
// μProgram view through the unit's cache. Structural errors (bad
// coordinates, bad deps) fail here. A segment whose *binding* is
// rejected fails here too when eager is set — the plan-verifier gate,
// which rejects the batch before any DRAM command executes; otherwise
// it is kept with its error attached and surfaces when its job issues,
// so Run stays fail-fast and prefix-consistent.
func (u *Unit) Prepare(jobs []Job, eager bool) (*Prepared, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("ctrl: empty batch")
	}
	pl, err := u.plan(jobs)
	if err != nil {
		return nil, err
	}
	pb := &Prepared{jobs: jobs, pl: pl, views: make([][][]segView, len(jobs))}
	for i := range jobs {
		groups := pl.groups[i]
		pb.views[i] = make([][]segView, len(groups))
		for gi, group := range groups {
			sv := make([]segView, len(group))
			for si, seg := range group {
				v, err := u.view(jobs[i].Program, seg)
				if err != nil {
					err = fmt.Errorf("ctrl: bank %d subarray %d: %w", seg.Bank, seg.Sub, err)
					if eager {
						return nil, fmt.Errorf("ctrl: job %d: %w", i, err)
					}
					sv[si] = segView{err: err}
					continue
				}
				sv[si] = segView{view: v}
			}
			pb.views[i][gi] = sv
		}
	}
	u.bindDispatch(pb)
	return pb, nil
}

// bindDispatch precomputes everything Run needs per run — successor
// lists, initial in-degrees, the group task closures, the result
// channel (buffered for every group, so a group run on the dispatching
// goroutine never blocks reporting), and per-bank scratch — so the run
// itself touches no allocator.
func (u *Unit) bindDispatch(pb *Prepared) {
	pl := pb.pl
	n := len(pb.jobs)
	pb.succs = make([][]int, n)
	pb.indeg0 = make([]int, n)
	for i, ps := range pl.preds {
		pb.indeg0[i] = len(ps)
		for _, p := range ps {
			pb.succs[p] = append(pb.succs[p], i)
		}
	}
	pb.indeg = make([]int, n)
	pb.remain = make([]int, n)
	pb.ready = make([]int, 0, n)
	pb.results = make(chan groupResult, pl.totalGroups())
	pb.bankEnergy = make([]float64, u.mod.NumBanks())

	pb.tasks = make([][]func(), n)
	for i := range pb.jobs {
		groups := pl.groups[i]
		pb.tasks[i] = make([]func(), len(groups))
		for gi, group := range groups {
			id, bank := i, group[0].Bank
			sv := pb.views[i][gi]
			// Only one goroutine touches this subarray at a time (the
			// constraint graph serializes same-subarray jobs), so its
			// stats delta is race-free and attributable to this group.
			sa := u.mod.Subarray(group[0].Bank, group[0].Sub)
			pb.tasks[i][gi] = func() {
				before := sa.Stats
				for _, seg := range sv {
					if seg.err != nil {
						pb.results <- groupResult{job: id, bank: bank, err: seg.err}
						return
					}
					uprog.RunView(sa, seg.view)
				}
				pb.results <- groupResult{job: id, bank: bank, energyPJ: sa.Stats.Sub(before).EnergyPJ}
			}
		}
	}
}

// RunOpts are the per-run options of Run.
type RunOpts struct {
	// Cancel, once closed, stops Run issuing new jobs: in-flight work
	// drains and — if any job was thereby skipped — Run reports
	// ErrCanceled. A cluster uses this to stop sibling channels after
	// one channel fails. A nil Cancel never fires.
	Cancel <-chan struct{}
	// Attr, when non-nil, accumulates the run's per-bank modeled busy
	// time, command counts and measured energy, plus the batch's
	// critical path (see Attribution). A failed or canceled run bills
	// nothing: its partial DRAM effects are not attributed, matching the
	// error contract that stats are not returned.
	Attr *Attribution
}

// Run executes a prepared batch — the control unit's only way to run
// anything. Functional execution dispatches at (job, subarray-group)
// granularity: a job is issued as soon as every constraint predecessor
// has completed, so bank-disjoint independent instructions execute
// concurrently while hazards and shared subarrays serialize
// (same-subarray jobs run in program order). Timing and the modeled
// critical path come from the deterministic plan, not from host
// scheduling; the returned durations are each job's modeled busy time
// — μProgram latency times the segment count on its busiest bank —
// which is the per-op cost a profile-guided scheduler folds back into
// its cost model.
//
// The calling goroutine executes the batch itself. Each dispatch round
// issues every ready job: every group but the round's last is offered
// to an idle worker of the process-wide pool, a group no worker is
// waiting for runs here at once, and the last always runs here. A
// dependency chain therefore never leaves the caller, while
// bank-parallel groups spread over free cores. Cancellation is checked
// between rounds, so every group of an issued job completes.
//
// On error, issuing stops (fail-fast), in-flight work drains, and every
// failure is reported via errors.Join; jobs not yet issued are skipped,
// so DRAM state reflects a prefix-consistent subset of the batch. The
// per-run work is only the dependency dispatch and the view runs — no
// validation, binding, planning, or heap allocation. Run holds the
// unit's run lock for the whole batch, so concurrent calls on one unit
// execute one after another and never share a Prepared's dispatch
// scratch.
//
//simdram:zeroalloc
func (u *Unit) Run(pb *Prepared, o RunOpts) (BatchStats, []float64, error) {
	u.runMu.Lock()
	jobs, pl, cancel, at := pb.jobs, pb.pl, o.Cancel, o.Attr
	n := len(jobs)
	copy(pb.indeg, pb.indeg0)
	for i := range jobs {
		pb.remain[i] = len(pl.groups[i])
	}
	for i := range pb.bankEnergy {
		pb.bankEnergy[i] = 0
	}
	pool := sharedPool()

	ready := pb.ready[:0]
	for i := range jobs {
		if pb.indeg[i] == 0 {
			ready = append(ready, i) //simdram:prealloc pb.ready holds every job
		}
	}
	var failures []error
	var energyPJ float64
	canceled := false
	doneJobs, inflight := 0, 0
	for doneJobs < n {
		if !canceled && cancel != nil {
			select {
			case <-cancel:
				canceled = true
			default:
			}
		}
		if len(failures) == 0 && !canceled && len(ready) > 0 {
			last := ready[len(ready)-1]
			for _, id := range ready {
				tasks := pb.tasks[id]
				for gi, task := range tasks {
					if (id == last && gi == len(tasks)-1) || !pool.TryRun(task) {
						task()
					}
				}
				inflight += len(tasks)
			}
		}
		ready = ready[:0]
		if inflight == 0 {
			break // fail-fast: nothing running, unissued jobs are skipped
		}
		r := <-pb.results
		inflight--
		if r.err != nil {
			failures = append(failures, r.err) //simdram:coldpath failed batch
		}
		energyPJ += r.energyPJ
		pb.bankEnergy[r.bank] += r.energyPJ
		pb.remain[r.job]--
		if pb.remain[r.job] == 0 {
			doneJobs++
			for _, s := range pb.succs[r.job] {
				pb.indeg[s]--
				if pb.indeg[s] == 0 {
					ready = append(ready, s) //simdram:prealloc pb.ready holds every job
				}
			}
		}
	}
	if canceled && doneJobs < n {
		//simdram:coldpath canceled batch
		failures = append(failures, fmt.Errorf("%w: %d of %d instructions completed", ErrCanceled, doneJobs, n))
	}
	if err := errors.Join(failures...); err != nil {
		u.runMu.Unlock()
		return BatchStats{}, nil, err
	}
	st := BatchStats{
		Instructions:   int64(n),
		Commands:       pl.nCmds,
		BusyNs:         pl.busyNs,
		CriticalPathNs: pl.spanNs,
		EnergyPJ:       energyPJ,
	}
	u.Stats.Add(ExecStats{
		Instructions: st.Instructions,
		Commands:     st.Commands,
		BusyNs:       st.CriticalPathNs,
		EnergyPJ:     st.EnergyPJ,
	})
	if at != nil {
		at.grow(len(pl.bankBusy))
		for b := range pl.bankBusy {
			at.BusyNs[b] += pl.bankBusy[b]
			at.Commands[b] += pl.bankCmds[b]
			at.EnergyPJ[b] += pb.bankEnergy[b]
		}
		at.SpanNs += pl.spanNs
	}
	u.runMu.Unlock()
	return st, pl.durNs, nil
}

func (pl *batchPlan) totalGroups() int {
	total := 0
	for _, gs := range pl.groups {
		total += len(gs)
	}
	return total
}
