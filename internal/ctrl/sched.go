package ctrl

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"simdram/internal/dram"
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

// batch is everything a Prepared owns: the schedule plan computes,
// one slab of bound μProgram views, and the dispatch tables Run works
// through. Its storage is recycled: Prepared.Release hands it to
// batchPool, and the next Prepare regrows it in place, so a one-shot
// batch allocates nothing in steady state.
type batch struct {
	// The schedule. Job i's subarray groups are
	// groups[jobGrp[i]:jobGrp[i+1]], bank-major, and a group's segments
	// are segs[lo:hi]: each job's segments, stably sorted by (bank,
	// subarray).
	segs   []Segment
	groups []group
	jobGrp []int32
	tmpl   []*uprog.Template // job → its μProgram's template
	durNs  []float64         // job → busy time on its busiest bank
	finish []float64         // job → modeled completion time
	busyNs float64
	spanNs float64
	nCmds  int64
	// Per-bank attribution of the batch under the timing model: modeled
	// busy time (μProgram latency × segments placed on the bank) and
	// command counts. Static per plan — energy, which depends on the
	// executed commands, is measured per run instead.
	bankBusy []float64
	bankCmds []int64

	// The views: segment s runs views[s], whose row map and row table
	// are carved from phys and rows.
	views []uprog.View
	phys  []int32
	rows  [][]uint64

	// The constraint graph: job i's predecessors are
	// preds[predOff[i]:predOff[i+1]] and the jobs its completion
	// unblocks succs[succOff[i]:succOff[i+1]].
	preds   []int32
	predOff []int32
	succs   []int32
	succOff []int32
	indeg0  []int32 // job → predecessor count

	// Per-run scratch, reset at the top of every Run.
	indeg      []int32
	remain     []int32 // outstanding subarray groups per job
	ready      []int32
	results    chan groupResult
	bankEnergy []float64 // bank → energy measured this run

	// Planning scratch.
	perBank   []int32   // bank → segments of the job being planned
	lastOnSub []int32   // bank*subs+sub → 1 + the last job on it, 0 if none
	bankFree  []float64 // bank → when it goes idle
}

// batchPool recycles the storage of released batches.
var batchPool = sync.Pool{New: func() any { return new(batch) }}

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

// group is one job's work on one subarray: its segments' views, run in
// order by whichever goroutine takes the group.
type group struct {
	b         *batch
	job, bank int32
	sub       int32
	lo, hi    int32 // the group's segments: b.views[lo:hi]
	sa        *dram.Subarray
}

// run executes the group's views and reports to the dispatch loop.
// Only one goroutine touches the group's subarray at a time (the
// constraint graph serializes same-subarray jobs), so its stats delta
// is race-free and attributable to this group.
//
//simdram:zeroalloc
func (g *group) run() {
	b, sa := g.b, g.sa
	before := sa.Stats
	for s := g.lo; s < g.hi; s++ {
		uprog.RunView(sa, &b.views[s])
	}
	b.results <- groupResult{job: g.job, bank: g.bank, energyPJ: sa.Stats.Sub(before).EnergyPJ}
}

// plan validates the jobs and computes the constraint graph and timing
// model into b. Timing is resolved deterministically in program order
// — an in-order dispatch greedy schedule — so batch latency never
// depends on the host's dynamic goroutine interleaving: job i starts
// when its hazard predecessors have finished and every bank it touches
// is free, runs for its μProgram latency times the segment count on
// its busiest bank, and occupies its banks until it finishes.
func (u *Unit) plan(b *batch, jobs []Job) error {
	n, banks, subs := len(jobs), u.mod.NumBanks(), u.mod.SubarraysPerBank()
	b.segs, b.groups, b.preds = b.segs[:0], b.groups[:0], b.preds[:0]
	b.jobGrp = sized(b.jobGrp, n+1)
	b.predOff = sized(b.predOff, n+1)
	b.tmpl = sized(b.tmpl, n)
	b.durNs = sized(b.durNs, n)
	b.finish = sized(b.finish, n)
	b.busyNs, b.spanNs, b.nCmds = 0, 0, 0
	b.bankBusy = sized(b.bankBusy, banks)
	b.bankCmds = sized(b.bankCmds, banks)
	b.bankFree = sized(b.bankFree, banks)
	b.lastOnSub = sized(b.lastOnSub, banks*subs)
	timing := u.mod.Config().Timing
	for i, job := range jobs {
		if job.Program == nil || len(job.Segments) == 0 {
			return fmt.Errorf("ctrl: job %d has no program or segments", i)
		}
		if err := u.group(b, i, job.Segments); err != nil {
			return fmt.Errorf("ctrl: job %d: %w", i, err)
		}

		// Constraint predecessors: declared data hazards plus program-order
		// edges between jobs sharing a subarray (the simulator's state
		// hazard; in hardware the same pair also serializes on the bank).
		p0 := len(b.preds)
		for _, d := range job.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("ctrl: job %d: dep %d is not an earlier job", i, d)
			}
			b.addPred(p0, int32(d))
		}
		for _, g := range b.groups[b.jobGrp[i]:] {
			last := &b.lastOnSub[int(g.bank)*subs+int(g.sub)]
			if *last > 0 {
				b.addPred(p0, *last-1)
			}
			*last = int32(i + 1)
		}
		b.predOff[i+1] = int32(len(b.preds))

		// Timing: segments within one bank serialize on the bank's
		// row-command bandwidth, banks overlap, so the job is busy for its
		// μProgram's one-subarray latency times its busiest bank's segment
		// count. It starts once its predecessors finish and its banks are
		// free, then holds those banks for its duration. The latency comes
		// from the program's shared template, which counted its commands
		// once.
		t := u.template(job.Program)
		b.tmpl[i] = t
		latNs := t.LatencyNs(timing)
		cmdsPerSeg := int64(len(job.Program.Ops))
		start, maxPerBank := 0.0, int32(0)
		for _, d := range b.preds[p0:] {
			start = max(start, b.finish[d])
		}
		for bk, segs := range b.perBank {
			if segs == 0 {
				continue
			}
			b.bankBusy[bk] += latNs * float64(segs)
			b.bankCmds[bk] += cmdsPerSeg * int64(segs)
			maxPerBank = max(maxPerBank, segs)
			start = max(start, b.bankFree[bk])
		}
		b.durNs[i] = latNs * float64(maxPerBank)
		b.nCmds += cmdsPerSeg * int64(len(job.Segments))
		b.finish[i] = start + b.durNs[i]
		for bk, segs := range b.perBank {
			if segs > 0 {
				b.bankFree[bk] = b.finish[i]
			}
		}
		b.busyNs += b.durNs[i]
		b.spanNs = max(b.spanNs, b.finish[i])
	}
	return nil
}

// group validates job i's segment coordinates, appends its segments to
// b.segs stably sorted by (bank, subarray), and appends one group per
// subarray in that bank-major order, leaving the segment count of
// every bank in b.perBank.
func (u *Unit) group(b *batch, i int, segs []Segment) error {
	b.perBank = sized(b.perBank, u.mod.NumBanks())
	for _, seg := range segs {
		if seg.Bank < 0 || seg.Bank >= u.mod.NumBanks() || seg.Sub < 0 || seg.Sub >= u.mod.SubarraysPerBank() {
			return fmt.Errorf("ctrl: segment (%d,%d) out of range", seg.Bank, seg.Sub)
		}
		b.perBank[seg.Bank]++
	}
	lo := len(b.segs)
	b.jobGrp[i] = int32(len(b.groups))
	b.segs = append(b.segs, segs...)
	sorted := b.segs[lo:]
	slices.SortStableFunc(sorted, func(x, y Segment) int {
		return cmp.Or(cmp.Compare(x.Bank, y.Bank), cmp.Compare(x.Sub, y.Sub))
	})
	for s := 0; s < len(sorted); {
		e := s + 1
		for e < len(sorted) && sorted[e].Bank == sorted[s].Bank && sorted[e].Sub == sorted[s].Sub {
			e++
		}
		bank, sub := sorted[s].Bank, sorted[s].Sub
		b.groups = append(b.groups, group{
			b: b, job: int32(i), bank: int32(bank), sub: int32(sub),
			lo: int32(lo + s), hi: int32(lo + e), sa: u.mod.Subarray(bank, sub),
		})
		s = e
	}
	b.jobGrp[i+1] = int32(len(b.groups))
	return nil
}

// addPred appends predecessor d to the job whose predecessors start at
// preds[p0], unless it already has it.
func (b *batch) addPred(p0 int, d int32) {
	if !slices.Contains(b.preds[p0:], d) {
		b.preds = append(b.preds, d)
	}
}

// groupResult is one subarray group's completion report, sent to the
// dispatch loop by whichever goroutine ran the group.
type groupResult struct {
	job, bank int32
	energyPJ  float64
}

// Prepared is a batch bound once for repeated execution: the validated
// schedule (constraint graph and deterministic timing) plus one bound
// μProgram view per segment. Run executes it without re-planning or
// re-binding anything — the run-many half of the bind-once/run-many
// pipeline, which a compiled graph caches alongside its plan. The
// schedule and views are immutable; the dispatch scratch makes each
// run allocation-free, and the unit's run lock keeps two runs from
// sharing it.
//
// A Prepared owns its storage: the views of all its segments share
// one row-table slab. An owner that runs a batch once and drops it
// calls Release, which recycles that storage for later Prepares; a
// batch kept for more runs is simply dropped when its owner is done
// with it, and the garbage collector reclaims it.
type Prepared struct {
	b *batch // nil once released
	n int
}

// DurNs returns each job's modeled busy time — its μProgram latency
// times the segment count on its busiest bank — fixed when pb was
// prepared; it sums to every run's BatchStats.BusyNs. The slice is
// pb's own storage, valid until pb is released.
func (pb *Prepared) DurNs() []float64 { return pb.b.durNs }

// Release returns pb's storage for reuse by later Prepares. The owner
// must be done with pb — Run has returned and no later Run will come —
// and so must every holder of its DurNs: running a released batch
// panics. Releasing twice is a no-op.
func (pb *Prepared) Release() {
	b := pb.b
	if b == nil {
		return
	}
	pb.b = nil
	b.reset()
	batchPool.Put(b)
}

// reset drops every reference b holds into a module, a binding or a
// template, so a pooled batch keeps nothing else alive.
func (b *batch) reset() {
	clear(b.segs)
	clear(b.groups)
	clear(b.tmpl)
	clear(b.views)
	clear(b.rows)
}

// Prepare validates and schedules a batch and binds every segment's
// μProgram view into the batch's own slab: one row map and one row
// table for all segments, sized from the templates before any view is
// bound, with the templates themselves shared process-wide. The
// returned batch keeps no reference into jobs or their segments, so
// the caller may reuse their storage once Prepare returns. Every
// error fails here, before any DRAM command executes: structural ones
// (bad coordinates, bad deps) and a segment whose binding is rejected,
// reported with every such segment's job, bank and subarray joined.
//
// The storage comes from batches earlier owners released (see
// Prepared.Release), so a Prepare between released batches of similar
// size allocates only the Prepared itself.
func (u *Unit) Prepare(jobs []Job) (*Prepared, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("ctrl: empty batch")
	}
	b := batchPool.Get().(*batch)
	err := u.plan(b, jobs)
	if err == nil {
		err = u.bind(b)
	}
	if err != nil {
		b.reset()
		batchPool.Put(b)
		return nil, err
	}
	b.dispatch(u.mod.NumBanks())
	return &Prepared{b: b, n: len(jobs)}, nil
}

// bind binds every segment's view into b's slab. It fails if any
// binding is rejected, joining one error per rejected segment.
func (u *Unit) bind(b *batch) error {
	total := 0
	for _, g := range b.groups {
		total += b.tmpl[g.job].Rows() * int(g.hi-g.lo)
	}
	b.phys = sized(b.phys, total)
	b.rows = sized(b.rows, total)
	b.views = sized(b.views, len(b.segs))
	off := 0
	var failures []error
	for _, g := range b.groups {
		t := b.tmpl[g.job]
		r := t.Rows()
		for s := g.lo; s < g.hi; s++ {
			seg := &b.segs[s]
			v, err := t.BindInto(g.sa, seg.Binding, b.phys[off:off+r:off+r], b.rows[off:off+r:off+r])
			off += r
			// The view holds everything the binding resolved to; drop its
			// source bases, which are the caller's storage, so a Prepared
			// keeps no reference into tables the caller may recycle.
			seg.Binding.SrcBase = nil
			if err != nil {
				failures = append(failures, fmt.Errorf("ctrl: job %d: bank %d subarray %d: %w", g.job, seg.Bank, seg.Sub, err))
				continue
			}
			b.views[s] = v
		}
	}
	return errors.Join(failures...)
}

// dispatch precomputes everything Run needs per run — successor lists,
// initial in-degrees, the result channel (buffered for every group, so
// a group run on the dispatching goroutine never blocks reporting),
// and per-bank scratch — so the run itself touches no allocator.
func (b *batch) dispatch(banks int) {
	n := len(b.durNs)
	b.indeg0 = sized(b.indeg0, n)
	b.succOff = sized(b.succOff, n+1)
	for i := range n {
		ps := b.preds[b.predOff[i]:b.predOff[i+1]]
		b.indeg0[i] = int32(len(ps))
		for _, p := range ps {
			b.succOff[p+1]++
		}
	}
	for i := range n {
		b.succOff[i+1] += b.succOff[i]
	}
	// Successors fill in job order, so each job's list is ascending;
	// remain serves as the per-job fill cursor until Run resets it.
	b.succs = sized(b.succs, len(b.preds))
	b.remain = sized(b.remain, n)
	for i := range n {
		for _, p := range b.preds[b.predOff[i]:b.predOff[i+1]] {
			b.succs[b.succOff[p]+b.remain[p]] = int32(i)
			b.remain[p]++
		}
	}
	b.indeg = sized(b.indeg, n)
	b.ready = sized(b.ready, n)[:0]
	if cap(b.results) < len(b.groups) {
		b.results = make(chan groupResult, len(b.groups))
	}
	b.bankEnergy = sized(b.bankEnergy, banks)
}

// RunOpts are the per-run options of Run.
type RunOpts struct {
	// Cancel, once closed, stops Run issuing new jobs: in-flight work
	// drains and — if any job was thereby skipped — Run reports
	// ErrCanceled. The serving layer passes a running job's context's
	// Done channel. A nil Cancel never fires.
	Cancel <-chan struct{}
	// Attr, when non-nil, accumulates the run's per-bank modeled busy
	// time, command counts and measured energy, plus the batch's
	// critical path (see Attribution). A canceled run bills nothing:
	// its partial DRAM effects are not attributed, matching the error
	// contract that stats are not returned.
	Attr *Attribution
}

// Run executes a prepared batch — the control unit's only way to run
// anything. Functional execution dispatches at (job, subarray-group)
// granularity: a job is issued as soon as every constraint predecessor
// has completed, so bank-disjoint independent instructions execute
// concurrently while hazards and shared subarrays serialize
// (same-subarray jobs run in program order). Timing and the modeled
// critical path come from the deterministic plan, not from host
// scheduling: they are fixed when pb is prepared (see DurNs).
//
// The calling goroutine executes the batch itself. Each dispatch round
// issues every ready job: every group but the round's last is offered
// to an idle worker of the process-wide pool, a group no worker is
// waiting for runs here at once, and the last always runs here. A
// dependency chain therefore never leaves the caller, while
// bank-parallel groups spread over free cores. Cancellation is checked
// between rounds, so every group of an issued job completes, and Run
// returns only once every issued group has reported: nothing touches
// pb after Run, so its owner may release it then.
//
// Every binding was checked when pb was prepared, so only cancellation
// stops a batch part-way: issuing stops, in-flight work drains, and
// jobs not yet issued are skipped, so DRAM state reflects a
// prefix-consistent subset of the batch. The per-run work is only the
// dependency dispatch and the view runs — no validation, binding,
// planning, or heap allocation. Run holds the unit's run lock for the
// whole batch, so concurrent calls on one unit execute one after
// another and never share a Prepared's dispatch scratch. Running a
// released Prepared panics.
//
//simdram:zeroalloc
func (u *Unit) Run(pb *Prepared, o RunOpts) (BatchStats, error) {
	b := pb.b
	if b == nil {
		panic("ctrl: Run of a released Prepared")
	}
	u.runMu.Lock()
	cancel, at := o.Cancel, o.Attr
	n := pb.n
	copy(b.indeg, b.indeg0)
	for i := range n {
		b.remain[i] = b.jobGrp[i+1] - b.jobGrp[i]
	}
	clear(b.bankEnergy)
	pool := sharedPool()

	ready := b.ready[:0]
	for i := range n {
		if b.indeg[i] == 0 {
			ready = append(ready, int32(i)) //simdram:prealloc b.ready holds every job
		}
	}
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
		if !canceled && len(ready) > 0 {
			last := ready[len(ready)-1]
			for _, id := range ready {
				g0, g1 := b.jobGrp[id], b.jobGrp[id+1]
				for g := g0; g < g1; g++ {
					gr := &b.groups[g]
					if (id == last && g == g1-1) || !pool.tryRun(gr) {
						gr.run()
					}
				}
				inflight += int(g1 - g0)
			}
		}
		ready = ready[:0]
		if inflight == 0 {
			break // canceled: nothing running, unissued jobs are skipped
		}
		r := <-b.results
		inflight--
		energyPJ += r.energyPJ
		b.bankEnergy[r.bank] += r.energyPJ
		b.remain[r.job]--
		if b.remain[r.job] == 0 {
			doneJobs++
			for _, s := range b.succs[b.succOff[r.job]:b.succOff[r.job+1]] {
				b.indeg[s]--
				if b.indeg[s] == 0 {
					ready = append(ready, s) //simdram:prealloc b.ready holds every job
				}
			}
		}
	}
	if doneJobs < n {
		u.runMu.Unlock()
		//simdram:coldpath canceled batch
		return BatchStats{}, fmt.Errorf("%w: %d of %d instructions completed", ErrCanceled, doneJobs, n)
	}
	st := BatchStats{
		Instructions:   int64(n),
		Commands:       b.nCmds,
		BusyNs:         b.busyNs,
		CriticalPathNs: b.spanNs,
		EnergyPJ:       energyPJ,
	}
	u.Stats.Add(ExecStats{
		Instructions: st.Instructions,
		Commands:     st.Commands,
		BusyNs:       st.CriticalPathNs,
		EnergyPJ:     st.EnergyPJ,
	})
	if at != nil {
		at.grow(len(b.bankBusy))
		for bk := range b.bankBusy {
			at.BusyNs[bk] += b.bankBusy[bk]
			at.Commands[bk] += b.bankCmds[bk]
			at.EnergyPJ[bk] += b.bankEnergy[bk]
		}
		at.SpanNs += b.spanNs
	}
	u.runMu.Unlock()
	return st, nil
}
