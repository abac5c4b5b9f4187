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
// cancellation signal fired: the job running then completed, later
// jobs were skipped.
var ErrCanceled = errors.New("ctrl: batch canceled")

// batch is everything a Prepared owns: the schedule plan computes and
// one slab of bound μProgram views. Its storage is recycled:
// Prepared.Release hands it to batchPool, and the next Prepare regrows
// it in place, so a one-shot batch allocates nothing in steady state.
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

	// Per-run scratch, reset at the top of every Run.
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

// group is one job's work on one subarray: its segments' views.
type group struct {
	job, bank int32
	sub       int32
	lo, hi    int32 // the group's segments: views[lo:hi]
	sa        *dram.Subarray
}

// run executes the group's views and returns the energy they spent:
// the growth of the subarray's energy counter, which only this group
// advances while it runs.
//
//simdram:zeroalloc
func (g *group) run(views []uprog.View) float64 {
	sa := g.sa
	e0 := sa.Stats.EnergyPJ
	for s := g.lo; s < g.hi; s++ {
		uprog.RunView(sa, &views[s])
	}
	return sa.Stats.EnergyPJ - e0
}

// plan validates the jobs and computes the timing model into b. Timing
// is resolved deterministically in program order — an in-order
// dispatch greedy schedule — so batch latency is fixed before anything
// executes: job i starts when its hazard predecessors have finished
// and every bank it touches is free, runs for its μProgram latency
// times the segment count on its busiest bank, and occupies its banks
// until it finishes.
func (u *Unit) plan(b *batch, jobs []Job) error {
	n, banks, subs := len(jobs), u.mod.NumBanks(), u.mod.SubarraysPerBank()
	b.segs, b.groups = b.segs[:0], b.groups[:0]
	b.jobGrp = sized(b.jobGrp, n+1)
	b.tmpl = sized(b.tmpl, n)
	b.durNs = sized(b.durNs, n)
	b.finish = sized(b.finish, n)
	b.busyNs, b.spanNs, b.nCmds = 0, 0, 0
	b.bankBusy = sized(b.bankBusy, banks)
	b.bankCmds = sized(b.bankCmds, banks)
	b.bankEnergy = sized(b.bankEnergy, banks)
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
		// Both kinds name earlier jobs only, so program order satisfies
		// them all; here they delay the job's modeled start.
		start := 0.0
		for _, d := range job.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("ctrl: job %d: dep %d is not an earlier job", i, d)
			}
			start = max(start, b.finish[d])
		}
		for _, g := range b.groups[b.jobGrp[i]:] {
			last := &b.lastOnSub[int(g.bank)*subs+int(g.sub)]
			if *last > 0 {
				start = max(start, b.finish[*last-1])
			}
			*last = int32(i + 1)
		}

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
		maxPerBank := int32(0)
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
			job: int32(i), bank: int32(bank), sub: int32(sub),
			lo: int32(lo + s), hi: int32(lo + e), sa: u.mod.Subarray(bank, sub),
		})
		s = e
	}
	b.jobGrp[i+1] = int32(len(b.groups))
	return nil
}

// Prepared is a batch bound once for repeated execution: the validated
// schedule (program-order groups and deterministic timing) plus one
// bound μProgram view per segment. Run executes it without re-planning
// or re-binding anything — the run-many half of the bind-once/run-many
// pipeline, which a compiled graph caches alongside its plan. The
// schedule and views are immutable; the per-bank energy scratch makes
// each run allocation-free, and the unit's run lock keeps two runs
// from sharing it.
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

// RunOpts are the per-run options of Run.
type RunOpts struct {
	// Cancel, once closed, stops Run issuing new jobs: the job running
	// completes and — if any job was thereby skipped — Run reports
	// ErrCanceled. The serving layer passes a running job's context's
	// Done channel. A nil Cancel never fires.
	Cancel <-chan struct{}
}

// Run executes a prepared batch — the control unit's only way to run
// anything — on the calling goroutine. It runs the jobs in program
// order and each job's subarray groups in bank-major order. Program
// order satisfies every constraint: a job's declared hazards and its
// same-subarray predecessors are all earlier jobs, and different
// subarrays share no rows. Bank-level overlap is a property of the
// timing model, not of host execution: timing and the modeled
// critical path are fixed when pb is prepared (see DurNs), and energy
// is summed in program order, so every run of pb reports the same
// stats. A completed run adds its stats to u.Stats and its per-bank
// busy time, commands and energy, plus its critical path, to the
// unit's bill (see Attribution).
//
// Every binding was checked when pb was prepared, so only cancellation
// stops a batch part-way. Cancel is checked before every job: the jobs
// before it complete, no job is partly executed, and the rest are
// skipped, so DRAM state reflects a program-order prefix of the batch.
// The per-run work is only the view runs — no validation, binding,
// planning, or heap allocation. Run holds the unit's run lock for the
// whole batch, so concurrent calls on one unit execute one after
// another and never share a Prepared's scratch. Nothing touches pb
// after Run returns, so its owner may release it then. Running a
// released Prepared panics.
//
//simdram:zeroalloc
func (u *Unit) Run(pb *Prepared, o RunOpts) (BatchStats, error) {
	b := pb.b
	if b == nil {
		panic("ctrl: Run of a released Prepared")
	}
	u.runMu.Lock()
	n := pb.n
	clear(b.bankEnergy)
	var energyPJ float64
	for i := range n {
		select {
		case <-o.Cancel:
			u.runMu.Unlock()
			//simdram:coldpath canceled batch
			return BatchStats{}, fmt.Errorf("%w: %d of %d instructions completed", ErrCanceled, i, n)
		default:
		}
		for g := b.jobGrp[i]; g < b.jobGrp[i+1]; g++ {
			gr := &b.groups[g]
			e := gr.run(b.views)
			energyPJ += e
			b.bankEnergy[gr.bank] += e
		}
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
	at := &u.attr
	for bk := range b.bankBusy {
		at.BusyNs[bk] += b.bankBusy[bk]
		at.Commands[bk] += b.bankCmds[bk]
		at.EnergyPJ[bk] += b.bankEnergy[bk]
	}
	at.SpanNs += b.spanNs
	u.runMu.Unlock()
	return st, nil
}
