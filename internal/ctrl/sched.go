package ctrl

import (
	"errors"
	"fmt"

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

// BatchStats reports the cost of an ExecuteBatch call under the paper's
// timing model.
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
	n := len(jobs)
	pl := &batchPlan{
		groups:   make([][][]Segment, n),
		preds:    make([][]int, n),
		durNs:    make([]float64, n),
		finish:   make([]float64, n),
		bankBusy: make([]float64, u.mod.NumBanks()),
		bankCmds: make([]int64, u.mod.NumBanks()),
	}
	timing := u.mod.Config().Timing
	lastOnSub := map[[2]int]int{} // subarray → last job that touched it
	bankFree := map[int]float64{} // bank → time it goes idle
	for i, job := range jobs {
		if job.Program == nil || len(job.Segments) == 0 {
			return nil, fmt.Errorf("ctrl: job %d has no program or segments", i)
		}
		groups, perBank, err := u.groupBySubarray(job.Segments)
		if err != nil {
			return nil, fmt.Errorf("ctrl: job %d: %w", i, err)
		}
		pl.groups[i] = groups
		latNs := job.Program.LatencyNs(timing)
		durNs, commands := jobCost(job.Program, latNs, len(job.Segments), perBank)
		pl.durNs[i] = durNs
		pl.nCmds += commands
		cmdsPerSeg := int64(len(job.Program.Ops))
		for b, segs := range perBank {
			pl.bankBusy[b] += latNs * float64(segs)
			pl.bankCmds[b] += cmdsPerSeg * int64(segs)
		}

		// Constraint predecessors: declared data hazards plus program-order
		// edges between jobs sharing a subarray (the simulator's state
		// hazard; in hardware the same pair also serializes on the bank).
		set := map[int]bool{}
		for _, d := range job.Deps {
			if d < 0 || d >= i {
				return nil, fmt.Errorf("ctrl: job %d: dep %d is not an earlier job", i, d)
			}
			set[d] = true
		}
		for _, g := range groups {
			key := [2]int{g[0].Bank, g[0].Sub}
			if prev, ok := lastOnSub[key]; ok {
				set[prev] = true
			}
		}
		for d := range set {
			pl.preds[i] = append(pl.preds[i], d)
		}
		for _, g := range groups {
			lastOnSub[[2]int{g[0].Bank, g[0].Sub}] = i
		}

		// Timing: the job starts once its predecessors finish and its
		// banks are free, then holds those banks for its duration.
		start := 0.0
		for _, d := range pl.preds[i] {
			if pl.finish[d] > start {
				start = pl.finish[d]
			}
		}
		for b := range perBank {
			if bankFree[b] > start {
				start = bankFree[b]
			}
		}
		pl.finish[i] = start + pl.durNs[i]
		for b := range perBank {
			bankFree[b] = pl.finish[i]
		}
		pl.busyNs += pl.durNs[i]
		if pl.finish[i] > pl.spanNs {
			pl.spanNs = pl.finish[i]
		}
	}
	return pl, nil
}

// ExecuteBatch runs a dependency-ordered batch of jobs, overlapping jobs
// whose constraints allow it. Functional execution dispatches at
// (job, subarray-group) granularity onto the unit's persistent worker
// pool: a job is issued as soon as every constraint predecessor has
// completed, so bank-disjoint independent instructions execute
// concurrently while hazards and shared subarrays serialize. Timing and
// the modeled critical path come from the deterministic plan, not from
// host scheduling.
//
// On error, issuing stops (fail-fast), in-flight work drains, and every
// failure is reported via errors.Join; jobs not yet issued are skipped,
// so DRAM state reflects a prefix-consistent subset of the batch.
func (u *Unit) ExecuteBatch(jobs []Job) (BatchStats, error) {
	return u.ExecuteBatchCancel(jobs, nil)
}

// ExecuteBatchCancel is ExecuteBatch with an external cancellation
// signal: once cancel is closed the unit stops issuing new jobs, drains
// in-flight work, and — if any job was thereby skipped — reports
// ErrCanceled. A cluster uses this to stop sibling channels after one
// channel fails. A nil cancel never fires.
func (u *Unit) ExecuteBatchCancel(jobs []Job, cancel <-chan struct{}) (BatchStats, error) {
	st, _, err := u.ExecuteBatchProfile(jobs, cancel)
	return st, err
}

// ExecuteBatchProfile is ExecuteBatchCancel surfacing the per-job
// modeled busy durations alongside the aggregate stats: opNs[i] is job
// i's latency under the timing model — μProgram latency times the
// segment count on its busiest bank. These are the per-op measured
// latencies a profile-guided scheduler folds back into its cost model
// (the static per-subarray model never sees the per-bank segment
// multiplier). opNs is nil when the batch errors.
func (u *Unit) ExecuteBatchProfile(jobs []Job, cancel <-chan struct{}) (BatchStats, []float64, error) {
	pb, err := u.Prepare(jobs)
	if err != nil {
		return BatchStats{}, nil, err
	}
	return u.ExecutePrepared(pb, cancel)
}

// segStream pairs one prepared segment with its resolved command
// stream, or with the resolution error to surface when its job issues.
type segStream struct {
	stream *uprog.ResolvedStream
	err    error
}

// groupResult is one subarray group's completion report, sent from a
// pool worker back to the dispatch loop.
type groupResult struct {
	job      int
	bank     int
	energyPJ float64
	err      error
}

// Prepared is a batch bound once for repeated execution: the validated
// schedule (constraint graph and deterministic timing) plus one
// resolved command stream per segment. ExecutePrepared runs it without
// re-planning or re-resolving anything — the run-many half of the
// bind-once/run-many pipeline, which a compiled graph caches alongside
// its plan. The schedule and streams are immutable; the dispatch
// scratch below makes each run allocation-free, which is also why a
// Prepared supports repeated *serial* ExecutePrepared calls only.
type Prepared struct {
	jobs    []Job
	pl      *batchPlan
	streams [][][]segStream // job → subarray group → segment; nil when interp
	// interp records the unit's execution mode at Prepare time: an
	// interpretive batch re-runs uprog.Run per segment instead of the
	// resolved streams.
	interp bool

	// Static dispatch structure, derived from pl.preds once at Prepare.
	succs  [][]int    // job → jobs unblocked by its completion
	indeg0 []int      // job → predecessor count
	tasks  [][]func() // job → one pool task per subarray group

	// Per-run scratch, reset at the top of every ExecutePrepared.
	indeg      []int
	remain     []int // outstanding subarray groups per job
	ready      []int
	results    chan groupResult
	bankEnergy []float64 // bank → energy measured this run
}

// Jobs returns the number of jobs in the prepared batch.
func (pb *Prepared) Jobs() int { return len(pb.jobs) }

// Prepare validates and schedules a batch and resolves every segment's
// command stream through the unit's cache. Structural errors (bad
// coordinates, bad deps) fail here; a segment whose *binding* fails to
// resolve is kept with its error attached and surfaces when its job
// issues — exactly where the interpretive path reports it — so a
// prepared batch preserves ExecuteBatch's fail-fast, prefix-consistent
// semantics.
func (u *Unit) Prepare(jobs []Job) (*Prepared, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("ctrl: empty batch")
	}
	pl, err := u.plan(jobs)
	if err != nil {
		return nil, err
	}
	pb := &Prepared{jobs: jobs, pl: pl, interp: u.Interpretive()}
	eager := u.verifyPlans()
	if pb.interp {
		// Interpretive batches resolve per run, so an eager Prepare
		// validates each binding against the μProgram and geometry the
		// same way uprog.Run will.
		if eager {
			for i, job := range jobs {
				for _, seg := range job.Segments {
					if err := seg.Binding.Validate(job.Program, u.mod.Config()); err != nil {
						return nil, fmt.Errorf("ctrl: job %d: bank %d subarray %d: %w", i, seg.Bank, seg.Sub, err)
					}
				}
			}
		}
	} else {
		pb.streams = make([][][]segStream, len(jobs))
		for i := range jobs {
			groups := pl.groups[i]
			pb.streams[i] = make([][]segStream, len(groups))
			for gi, group := range groups {
				ss := make([]segStream, len(group))
				for si, seg := range group {
					st, err := u.resolvedStream(jobs[i].Program, seg.Binding)
					if err != nil {
						err = fmt.Errorf("ctrl: bank %d subarray %d: %w", seg.Bank, seg.Sub, err)
						if eager {
							return nil, fmt.Errorf("ctrl: job %d: %w", i, err)
						}
						ss[si] = segStream{err: err}
						continue
					}
					ss[si] = segStream{stream: st}
				}
				pb.streams[i][gi] = ss
			}
		}
	}
	u.bindDispatch(pb)
	return pb, nil
}

// bindDispatch precomputes everything ExecutePrepared needs per run —
// successor lists, initial in-degrees, the pool task closures, the
// result channel, and per-bank scratch — so the run itself touches no
// allocator.
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
		p := pb.jobs[i].Program
		pb.tasks[i] = make([]func(), len(groups))
		for gi, group := range groups {
			id, gi, group := i, gi, group
			bank := group[0].Bank
			// Only one worker touches this subarray at a time (the
			// constraint graph serializes same-subarray jobs), so its
			// stats delta is race-free and attributable to this group.
			sa := u.mod.Subarray(group[0].Bank, group[0].Sub)
			pb.tasks[i][gi] = func() {
				before := sa.Stats
				for si, seg := range group {
					if pb.interp {
						if err := uprog.Run(p, sa, seg.Binding); err != nil {
							pb.results <- groupResult{job: id, bank: bank, err: fmt.Errorf("ctrl: bank %d subarray %d: %w", seg.Bank, seg.Sub, err)}
							return
						}
						continue
					}
					ss := pb.streams[id][gi][si]
					if ss.err != nil {
						pb.results <- groupResult{job: id, bank: bank, err: ss.err}
						return
					}
					uprog.RunResolved(sa, ss.stream)
				}
				pb.results <- groupResult{job: id, bank: bank, energyPJ: sa.Stats.Sub(before).EnergyPJ}
			}
		}
	}
}

// ExecutePrepared runs a prepared batch. Semantics, stats, and errors
// match ExecuteBatchProfile; the per-run work is only the dependency
// dispatch and the resolved-stream loops — no validation, resolution,
// planning, or heap allocation (the dispatch state lives in the
// Prepared, which is why runs of one Prepared must be serial).
func (u *Unit) ExecutePrepared(pb *Prepared, cancel <-chan struct{}) (BatchStats, []float64, error) {
	return u.ExecutePreparedAttr(pb, cancel, nil)
}

// ExecutePreparedAttr is ExecutePrepared with an optional resource
// attribution sink: on success, the run's per-bank modeled busy time,
// command counts, and measured energy — plus the batch's critical
// path — are accumulated into at. A nil sink costs nothing; a failed
// or canceled run bills nothing (its partial DRAM effects are not
// attributed, matching the error contract that stats are not
// returned).
//
//simdram:zeroalloc
func (u *Unit) ExecutePreparedAttr(pb *Prepared, cancel <-chan struct{}, at *Attribution) (BatchStats, []float64, error) {
	jobs, pl := pb.jobs, pb.pl
	n := len(jobs)
	copy(pb.indeg, pb.indeg0)
	for i := range jobs {
		pb.remain[i] = len(pl.groups[i])
	}
	for i := range pb.bankEnergy {
		pb.bankEnergy[i] = 0
	}
	pool := u.pool()

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
		if len(failures) == 0 && !canceled {
			for _, id := range ready {
				for _, task := range pb.tasks[id] {
					pool.Run(task)
				}
				inflight += len(pb.tasks[id])
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
	return st, pl.durNs, nil
}

func (pl *batchPlan) totalGroups() int {
	total := 0
	for _, gs := range pl.groups {
		total += len(gs)
	}
	return total
}
