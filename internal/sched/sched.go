// Package sched implements the multi-tenant job scheduler behind the
// public Server facade: a bounded admission queue, weighted-fair
// per-tenant dispatch, and a fixed pool of workers (one per cluster
// channel in the serving deployment).
//
// Admission control is reject-on-full, never block-on-full: a Submit
// that would exceed the global queue depth fails with ErrQueueFull,
// and one that would exceed the per-tenant quota (queued + running)
// fails with ErrTenantQuota, so one tenant's burst cannot wedge the
// submission path for everyone else. Every rejection is a typed
// *AdmissionError carrying the reason and the admission-time estimate,
// and unwraps to the matching sentinel so errors.Is keeps working.
//
// Fairness is weighted fair queueing (stride scheduling) over modeled
// DRAM-ns: each tenant carries a virtual time that advances by
// chargeNs/weight when one of its jobs dispatches, and each free
// worker takes a job from the active tenant with the lowest virtual
// time (ties broken by tenant name, so equal-weight tenants
// interleave deterministically). Tenants map to declared tiers
// (Config.Tiers); a tier's weight buys its tenants a proportional
// share of dispatch, and SetBoost lets the serving layer preempt
// *queued* (never running) lower-priority work while a
// higher-priority tier's SLO burn is active.
//
// Deadline-aware admission prices a submission before queueing it:
// the scheduler tracks the modeled cost of everything still queued
// (pendingModeledNs), calibrates modeled-ns to wall-ns with an EWMA
// over completed jobs, and rejects with ErrDeadlineInfeasible any
// request whose estimated queue wait plus modeled run time cannot
// meet its deadline — the job is never queued. A tier's MaxQueueNs
// similarly sheds load ("tier-backlog") when the estimated wait
// exceeds what the tier is willing to tolerate.
//
// Cancellation composes with the execution engine's preemption: a
// running job's cancel signal is its submission context's Done
// channel, which the serving layer threads into ctrl.RunOpts.Cancel so
// an in-flight batch stops issuing instructions instead of running to
// completion. A context canceled while the job is still queued
// resolves the job immediately with the context's error and releases
// its queue slot and quota, through one context.AfterFunc registration
// that is stopped when the job resolves: no goroutine starts per job.
//
// The package is execution-agnostic: a job is just a closure given a
// worker index and a cancel signal. The facade owns what a worker
// index means (a channel's System) and what running a job does
// (compile, bind, execute, load).
package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"simdram/internal/obs"
)

// Scheduler errors. ErrQueueFull, ErrTenantQuota, and
// ErrDeadlineInfeasible are admission rejections — the job was never
// queued — and arrive wrapped in an *AdmissionError; ErrClosed reports
// submission to (or draining by) a closed scheduler.
var (
	ErrQueueFull          = errors.New("sched: queue full")
	ErrTenantQuota        = errors.New("sched: tenant over quota")
	ErrDeadlineInfeasible = errors.New("sched: deadline infeasible at current queue depth")
	ErrClosed             = errors.New("sched: scheduler closed")
)

// Admission rejection reasons, as carried by AdmissionError.Reason.
const (
	ReasonQueueFull   = "queue-full"          // global queue at capacity (ErrQueueFull)
	ReasonTenantQuota = "tenant-quota"        // tenant over its quota (ErrTenantQuota)
	ReasonTierBacklog = "tier-backlog"        // estimated wait exceeds the tier's MaxQueueNs (ErrQueueFull)
	ReasonDeadline    = "deadline-infeasible" // deadline cannot be met (ErrDeadlineInfeasible)
)

// AdmissionError is a typed admission rejection: which rule fired, for
// whom, and what the scheduler believed about the queue at the moment
// it said no. It unwraps to the matching sentinel (ErrQueueFull,
// ErrTenantQuota, or ErrDeadlineInfeasible) so existing
// errors.Is(err, ErrQueueFull) checks keep working unchanged.
type AdmissionError struct {
	// Reason is one of the Reason* constants.
	Reason string
	// Tenant and Tier identify the rejected submission.
	Tenant, Tier string
	// QueueDepth is the number of jobs queued across all tenants at
	// rejection time.
	QueueDepth int
	// EstimatedWaitNs is the wall-clock queue wait the scheduler
	// predicted for this submission; ModeledNs the modeled run cost it
	// was priced with (zero when the caller supplied none).
	EstimatedWaitNs int64
	ModeledNs       float64

	err error
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("sched: admission rejected (%s) tenant=%s tier=%s depth=%d estWait=%dns modeled=%.0fns",
		e.Reason, e.Tenant, e.Tier, e.QueueDepth, e.EstimatedWaitNs, e.ModeledNs)
}

// Unwrap returns the sentinel the rejection reason maps to.
func (e *AdmissionError) Unwrap() error { return e.err }

// Tier declares one QoS class tenants submit under. Weight buys a
// proportional share of dispatch (a weight-4 tier's tenants advance
// their virtual time 4× slower per modeled nanosecond than a weight-1
// tier's); Priority orders tiers for SLO-burn boosting (higher wins);
// MaxQueueNs, when positive, sheds submissions whose estimated queue
// wait exceeds it.
type Tier struct {
	Name       string
	Weight     float64
	Priority   int
	MaxQueueNs int64
}

// DefaultTierName is the tier tenants land in when a submission names
// no tier (or an undeclared one) and no tier named "default" is
// configured.
const DefaultTierName = "default"

// ResolveTier maps a requested tier name onto the declared tiers: an
// exact name match wins; an empty or undeclared name falls back to the
// configured "default" tier if one exists, else to the implicit
// {Name: "default", Weight: 1, Priority: 0}. Non-positive weights
// normalize to 1 so a zero-valued Tier literal still dispatches.
func ResolveTier(tiers []Tier, name string) Tier {
	if name == "" {
		name = DefaultTierName
	}
	for _, t := range tiers {
		if t.Name == name {
			return normalizeTier(t)
		}
	}
	if name != DefaultTierName {
		for _, t := range tiers {
			if t.Name == DefaultTierName {
				return normalizeTier(t)
			}
		}
	}
	return Tier{Name: DefaultTierName, Weight: 1}
}

func normalizeTier(t Tier) Tier {
	if t.Weight <= 0 {
		t.Weight = 1
	}
	return t
}

// Task is one unit of scheduled work: run on the given worker until
// done, or until cancel closes (then stop early and return an error,
// conventionally wrapping ctrl.ErrCanceled). cancel is the submission
// context's Done channel, nil when the context can never be canceled.
type Task func(worker int, cancel <-chan struct{}) error

// Unpriced is the Request.ModeledNs of a submission whose modeled run
// cost the caller does not know (a raw job): the scheduler prices it at
// its trailing average charge. A zero ModeledNs is a price, of a job
// that runs nothing.
const Unpriced = -1.0

// Request carries a submission's QoS intent into admission: who is
// submitting, under which tier, with what (optional) deadline and
// modeled run cost. The zero value (plus Tenant and ModeledNs Unpriced)
// reproduces the legacy Submit behavior: default tier, no deadline,
// cost learned from history.
type Request struct {
	Tenant string
	// Tier names a declared Config.Tiers entry; empty or undeclared
	// resolves per ResolveTier.
	Tier string
	// Deadline, when set, makes admission reject the request with
	// ErrDeadlineInfeasible if estimated wait + modeled run time cannot
	// meet it.
	Deadline time.Time
	// ModeledNs is the request's modeled run cost (DRAM-ns critical
	// path) — the serving layer gives a lazy job its plan's exact
	// executed time, 0 for a plan that runs nothing. Unpriced means
	// unknown: the scheduler prices the request at its trailing average
	// charge.
	ModeledNs float64
	// Trace, when non-nil, receives the job's "queue" span under its
	// root when a worker picks the job up, timed by the same two clock
	// readings as Ticket.QueueNs: admission and dispatch.
	Trace *obs.Trace
}

// Config sizes a Scheduler.
type Config struct {
	// Workers is the number of concurrent executors. Each queued job is
	// handed a worker index in [0, Workers); the serving layer maps the
	// index to a cluster channel.
	Workers int
	// QueueDepth bounds jobs queued across all tenants (running jobs do
	// not count). Submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// TenantQuota bounds one tenant's queued plus running jobs; 0 means
	// no per-tenant bound. Submissions beyond it fail with
	// ErrTenantQuota.
	TenantQuota int
	// Tiers declares the QoS classes submissions may name. Tenants in
	// an undeclared (or empty) tier resolve per ResolveTier. Declared
	// tiers get their registry series eagerly so dashboards see them
	// before the first submission.
	Tiers []Tier
	// Metrics, when set, is the registry the scheduler publishes its
	// counters, depth gauges, and latency histograms into (series named
	// "sched.*"; per-tenant histograms as "sched.queue_ns{tenant=T}";
	// per-tier counters as "sched.tier_dispatched{tier=T}").
	// When nil the scheduler keeps a private registry, so counters and
	// quantiles always work.
	Metrics *obs.Registry
}

// Ticket is one submitted job moving through queued → running → done,
// and the caller's handle on it: the future the facade wraps.
type Ticket struct {
	tenant string
	tier   string
	run    Task
	// ctx's Done channel is the running job's cancel signal; stop
	// unregisters the AfterFunc that cancels the job while queued (nil
	// when ctx can never be canceled).
	ctx      context.Context
	stop     func() bool
	trace    *obs.Trace
	queuedAt time.Time
	// chargeNs is the modeled cost the job was admitted with (the
	// request's ModeledNs, or the trailing average when unknown); it is
	// the job's contribution to pendingModeledNs while queued and the
	// basis of its virtual-time charge at dispatch.
	chargeNs  float64
	estWaitNs int64

	done    chan struct{}
	err     error
	worker  int
	queueNs int64
	runNs   int64
	started bool
	fin     bool
}

// Done returns a channel closed when the job finishes (successfully,
// with an error, or canceled).
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the job finishes and returns its error.
func (t *Ticket) Wait() error { <-t.done; return t.err }

// Worker returns the worker index that ran the job, or -1 if it never
// ran. Valid after Done.
func (t *Ticket) Worker() int { return t.worker }

// QueueNs returns how long the job waited in the queue; RunNs how long
// it ran. Valid after Done; both measured on the monotonic clock and
// never negative.
func (t *Ticket) QueueNs() int64 { return t.queueNs }

// RunNs returns the job's execution time in nanoseconds. Valid after
// Done.
func (t *Ticket) RunNs() int64 { return t.runNs }

// EstimatedWaitNs returns the queue wait admission predicted for this
// job; ModeledNs the modeled cost it was priced with. Valid
// immediately after submission — compare against QueueNs/RunNs after
// Done to audit the admission estimate.
func (t *Ticket) EstimatedWaitNs() int64 { return t.estWaitNs }

// ModeledNs returns the modeled run cost the job was admitted with.
func (t *Ticket) ModeledNs() float64 { return t.chargeNs }

// tenantState is one tenant's queue and counters.
type tenantState struct {
	queue   []*Ticket
	running int

	// tier/weight are the tenant's current QoS assignment (last
	// submission wins); vt its weighted-fair virtual time — cumulative
	// chargeNs/weight over dispatched jobs, clamped up to the
	// scheduler's vclock on re-activation so an idle tenant cannot bank
	// credit and starve everyone on return.
	tier   string
	weight float64
	vt     float64

	submitted, completed, failed, rejected, canceled uint64
	busyNs, waitNs                                   int64
	// modeledNs and energyPJ are the tenant's bill: the modeled DRAM
	// time and energy of its executed jobs, as reported through
	// Observe. dramCtr and energyCtr export them as the registry series
	// tenant.dram_ns{tenant=T} and tenant.energy_pj{tenant=T}; Stats
	// reads the fields, which stay the tenant's own past the
	// registry's series cap.
	modeledNs, energyPJ float64
	dramCtr, energyCtr  *obs.FloatCounter

	// queueHist/runHist are the tenant's latency distributions,
	// registered as sched.queue_ns{tenant=T} / sched.run_ns{tenant=T}.
	// Registry series outlive tenant-state eviction (bounded by the
	// registry's own series cap), so a returning tenant reattaches to
	// its history.
	queueHist, runHist *obs.Histogram
}

// tierState is one tier's counters and registry series.
type tierState struct {
	cfg     Tier
	queued  int
	running int

	dispatched, rejected, deadlineRejects, preempts *obs.Counter
	modeledCtr                                      *obs.FloatCounter
	gQueued                                         *obs.Gauge
}

// Scheduler dispatches tenant jobs onto a fixed worker pool. Safe for
// concurrent use.
type Scheduler struct {
	cfg  Config
	mu   sync.Mutex
	cond *sync.Cond

	tenants map[string]*tenantState
	tiers   map[string]*tierState
	active  []string        // tenants with queued work (unordered set; pop scans for min vt)
	boost   map[string]bool // tiers whose SLO burn preempts queued lower-priority work
	queued  int
	running int
	closed  bool
	wg      sync.WaitGroup

	// vclock is the virtual time of the most recently dispatched
	// tenant; a tenant (re)joining the active set starts no earlier, so
	// idle time is not bankable. pendingModeledNs is the summed modeled
	// cost of everything still queued; avgChargeNs an EWMA of observed
	// per-job modeled costs (prices requests that carry no estimate);
	// calib an EWMA of wall-ns per modeled-ns over completed jobs
	// (converts modeled backlog into predicted wall-clock wait).
	vclock           float64
	pendingModeledNs float64
	avgChargeNs      float64
	calib            float64

	// Global counters, gauges, and latency histograms live in the
	// metrics registry (cfg.Metrics or a private one), so external
	// observers and Stats() read the same numbers.
	metrics                                          *obs.Registry
	submitted, completed, failed, rejected, canceled *obs.Counter
	gQueued, gRunning                                *obs.Gauge
	queueHist, runHist, jobHist                      *obs.Histogram
}

// New starts a scheduler with cfg.Workers worker goroutines. Workers
// and QueueDepth below 1 default to 1.
func New(cfg Config) *Scheduler {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 1
	}
	s := &Scheduler{
		cfg:     cfg,
		tenants: map[string]*tenantState{},
		tiers:   map[string]*tierState{},
		calib:   1.0,
	}
	s.metrics = cfg.Metrics
	if s.metrics == nil {
		s.metrics = obs.NewRegistry()
	}
	s.submitted = s.metrics.Counter("sched.submitted")
	s.completed = s.metrics.Counter("sched.completed")
	s.failed = s.metrics.Counter("sched.failed")
	s.rejected = s.metrics.Counter("sched.rejected")
	s.canceled = s.metrics.Counter("sched.canceled")
	s.gQueued = s.metrics.Gauge("sched.queued")
	s.gRunning = s.metrics.Gauge("sched.running")
	s.queueHist = s.metrics.Histogram("sched.queue_ns")
	s.runHist = s.metrics.Histogram("sched.run_ns")
	s.jobHist = s.metrics.Histogram("sched.job_ns")
	// Declared tiers get their series eagerly so a tier that never
	// receives traffic still shows up (at zero) in dashboards and in
	// Stats().Tiers.
	for _, t := range cfg.Tiers {
		s.tierLocked(normalizeTier(t))
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker(w)
	}
	return s
}

// Submit enqueues a job for the tenant under the default tier with no
// deadline — the legacy submission path, kept as a thin wrapper over
// SubmitRequest. It never blocks: over-capacity submissions fail
// immediately with an *AdmissionError wrapping ErrQueueFull or
// ErrTenantQuota, and a context already expired fails with its error.
// ctx may be nil (never cancels).
func (s *Scheduler) Submit(ctx context.Context, tenant string, run Task) (*Ticket, error) {
	return s.SubmitRequest(ctx, Request{Tenant: tenant, ModeledNs: Unpriced}, run)
}

// SubmitRequest enqueues a job with full QoS intent: tier, deadline,
// and modeled cost. Admission applies, in order:
// the global queue depth (ErrQueueFull), the tenant quota
// (ErrTenantQuota), the tier's MaxQueueNs backlog bound (ErrQueueFull,
// reason "tier-backlog"), and the deadline feasibility check
// (ErrDeadlineInfeasible). All rejections are typed *AdmissionError
// values and happen before the job is queued — a rejected job is never
// visible to dispatch.
func (s *Scheduler) SubmitRequest(ctx context.Context, req Request, run Task) (*Ticket, error) {
	if run == nil {
		return nil, errors.New("sched: nil task")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	tier := ResolveTier(s.cfg.Tiers, req.Tier)
	tst := s.tierLocked(tier)
	ts := s.tenantLocked(req.Tenant)
	ts.tier = tier.Name
	ts.weight = tier.Weight
	// Price the request: its own modeled cost when known, else the
	// trailing average charge. estWait converts the queued modeled
	// backlog into predicted wall-clock wait through the calibration
	// EWMA, spread across the worker pool.
	charge := req.ModeledNs
	if charge < 0 {
		charge = s.avgChargeNs
	}
	estWait := int64(s.calib * s.pendingModeledNs / float64(s.cfg.Workers))
	reject := func(reason string, sentinel error) (*Ticket, error) {
		s.rejected.Inc()
		ts.rejected++
		tst.rejected.Inc()
		if reason == ReasonDeadline {
			tst.deadlineRejects.Inc()
		}
		depth := s.queued
		s.mu.Unlock()
		return nil, &AdmissionError{
			Reason: reason, Tenant: req.Tenant, Tier: tier.Name,
			QueueDepth: depth, EstimatedWaitNs: estWait, ModeledNs: max(req.ModeledNs, 0),
			err: sentinel,
		}
	}
	if s.queued >= s.cfg.QueueDepth {
		return reject(ReasonQueueFull, ErrQueueFull)
	}
	if s.cfg.TenantQuota > 0 && len(ts.queue)+ts.running >= s.cfg.TenantQuota {
		return reject(ReasonTenantQuota, ErrTenantQuota)
	}
	if tier.MaxQueueNs > 0 && estWait > tier.MaxQueueNs {
		return reject(ReasonTierBacklog, ErrQueueFull)
	}
	if !req.Deadline.IsZero() {
		finish := time.Now().Add(time.Duration(estWait) + time.Duration(s.calib*charge))
		if finish.After(req.Deadline) {
			return reject(ReasonDeadline, ErrDeadlineInfeasible)
		}
	}
	j := &Ticket{
		tenant: req.Tenant, tier: tier.Name, run: run, ctx: ctx, trace: req.Trace,
		queuedAt: time.Now(), chargeNs: charge, estWaitNs: estWait,
		done: make(chan struct{}), worker: -1,
	}
	if ctx.Done() != nil {
		// Under mu, so stop is set before the job can resolve; an
		// already canceled ctx runs the callback on its own goroutine.
		j.stop = context.AfterFunc(ctx, func() { s.cancelQueued(j) })
	}
	if len(ts.queue) == 0 {
		// (Re-)activation: the tenant's virtual time catches up to the
		// scheduler's clock — less a bounded lag of a couple of average
		// jobs, so a closed-loop caller whose queue drains for a moment
		// between completion and resubmission keeps its earned position
		// (borrowed-virtual-time style). Longer idle periods are still
		// not bankable credit.
		if floor := s.vclock - reactivationLagJobs*s.avgChargeNs/ts.weight; ts.vt < floor {
			ts.vt = floor
		}
		if seed := ts.modeledNs / ts.weight; ts.vt < seed && s.vclock >= seed {
			ts.vt = seed
		}
		s.active = append(s.active, req.Tenant)
	}
	ts.queue = append(ts.queue, j)
	ts.submitted++
	s.submitted.Inc()
	s.queued++
	s.gQueued.Set(int64(s.queued))
	s.pendingModeledNs += j.chargeNs
	tst.queued++
	tst.gQueued.Set(int64(tst.queued))
	s.cond.Signal()
	s.mu.Unlock()
	return j, nil
}

// SetBoost declares which tiers currently have an active SLO burn:
// while a boosted tier has queued work, dispatch restricts itself to
// the highest-priority boosted tier, preempting queued (never running)
// lower-priority jobs. The serving layer calls this from its SLO
// evaluation loop; passing an empty or nil map restores pure weighted
// fairness.
func (s *Scheduler) SetBoost(tiers map[string]bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(tiers) == 0 {
		s.boost = nil
		return
	}
	b := make(map[string]bool, len(tiers))
	for name, on := range tiers {
		if on {
			b[name] = true
		}
	}
	if len(b) == 0 {
		b = nil
	}
	s.boost = b
}

// cancelQueued resolves a job whose context expired while it was still
// waiting in the queue, releasing its slot and quota. A job already
// taken by a worker is left alone: its cancel signal, the context's
// Done channel, has already closed and preempts it.
func (s *Scheduler) cancelQueued(j *Ticket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.started || j.fin {
		return
	}
	ts := s.tenants[j.tenant]
	for i, q := range ts.queue {
		if q == j {
			ts.queue = slices.Delete(ts.queue, i, i+1)
			s.dequeuedLocked(j)
			if len(ts.queue) == 0 {
				s.dropActive(j.tenant)
			}
			break
		}
	}
	j.queueNs = durationNs(j.queuedAt, time.Now())
	s.finishLocked(j, j.ctx.Err(), true)
}

// dequeuedLocked updates the global and per-tier queue accounting for
// a job leaving the queue (dispatched, canceled, or drained). Caller
// holds mu.
func (s *Scheduler) dequeuedLocked(j *Ticket) {
	s.queued--
	s.gQueued.Set(int64(s.queued))
	s.pendingModeledNs -= j.chargeNs
	if s.pendingModeledNs < 0 {
		s.pendingModeledNs = 0
	}
	if tst := s.tiers[j.tier]; tst != nil {
		tst.queued--
		tst.gQueued.Set(int64(tst.queued))
	}
}

// dropActive removes a tenant from the active set.
func (s *Scheduler) dropActive(tenant string) {
	for i, name := range s.active {
		if name == tenant {
			s.active = append(s.active[:i], s.active[i+1:]...)
			return
		}
	}
}

// pop takes the next job under weighted fair queueing: the active
// tenant with the lowest virtual time wins (ties broken by name), and
// its tenant is charged chargeNs/weight of virtual time. When a
// boosted tier has queued work, tiers of strictly lower priority are
// excluded from this dispatch — their queued jobs wait — and a
// dispatch the boosted tier takes past skipped work counts as a
// preemption. Caller holds mu.
func (s *Scheduler) pop() *Ticket {
	if len(s.active) == 0 {
		return nil
	}
	// Boost filter: the highest-priority boosted tier with queued work,
	// if any, owns this dispatch.
	var boostTier *tierState
	if len(s.boost) > 0 {
		for _, name := range s.active {
			ts := s.tenants[name]
			if !s.boost[ts.tier] {
				continue
			}
			tst := s.tiers[ts.tier]
			if tst == nil {
				continue
			}
			if boostTier == nil || tst.cfg.Priority > boostTier.cfg.Priority {
				boostTier = tst
			}
		}
	}
	best := ""
	skippedLower := false
	for _, name := range s.active {
		ts := s.tenants[name]
		// A boost excludes only strictly lower-priority tiers: tiers at
		// or above the boosted priority keep competing by weighted
		// fairness, so a breaching bottom tier cannot lock out the tiers
		// above it.
		if boostTier != nil {
			if tst := s.tiers[ts.tier]; tst == nil || tst.cfg.Priority < boostTier.cfg.Priority {
				skippedLower = true
				continue
			}
		}
		if best == "" {
			best = name
			continue
		}
		bs := s.tenants[best]
		if ts.vt < bs.vt || (ts.vt == bs.vt && name < best) {
			best = name
		}
	}
	if best == "" {
		return nil
	}
	ts := s.tenants[best]
	j := ts.queue[0]
	// Shift in place, so the FIFO keeps its capacity.
	ts.queue = slices.Delete(ts.queue, 0, 1)
	s.dequeuedLocked(j)
	if len(ts.queue) == 0 {
		s.dropActive(best)
	}
	// Charge virtual time: the job's admitted modeled cost over the
	// tenant's weight, with a unit fallback so a cold scheduler (no
	// history, no estimates) still interleaves round-robin.
	charge := j.chargeNs
	if charge <= 0 {
		charge = 1
	}
	s.vclock = ts.vt
	ts.vt += charge / ts.weight
	if tst := s.tiers[j.tier]; tst != nil {
		tst.dispatched.Inc()
		tst.modeledCtr.Add(charge)
		if skippedLower && s.boost[j.tier] {
			tst.preempts.Inc()
		}
	}
	return j
}

// Observe bills one executed job to its tenant: the serving layer
// reports each completed job's modeled DRAM time (its batches'
// critical paths) and energy here, so tenants are billed in
// simulated-hardware time rather than host wall time (which inflates
// under host contention). The tenant's record is its one ledger. The
// trailing average charge (which prices estimate-less submissions)
// updates here too. A job that ran no DRAM time bills nothing.
// Unknown tenants (e.g. already evicted by the tenant-state cap) are
// recorded fresh.
func (s *Scheduler) Observe(tenant string, modeledNs, energyPJ float64) {
	if modeledNs <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tenantLocked(tenant)
	ts.modeledNs += modeledNs
	ts.energyPJ += energyPJ
	ts.dramCtr.Add(modeledNs)
	ts.energyCtr.Add(energyPJ)
	if s.avgChargeNs <= 0 {
		s.avgChargeNs = modeledNs
	} else {
		s.avgChargeNs = 0.875*s.avgChargeNs + 0.125*modeledNs
	}
}

// TierOf returns the tier the tenant's last submission resolved to
// (see ResolveTier), or DefaultTierName for a tenant the scheduler does
// not hold: never seen, or evicted by the tenant-state cap.
func (s *Scheduler) TierOf(tenant string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ts := s.tenants[tenant]; ts != nil {
		return ts.tier
	}
	return DefaultTierName
}

// tenantLocked returns the tenant's state, creating it (with its
// registry-backed latency histograms) on first sight. Caller holds mu.
func (s *Scheduler) tenantLocked(tenant string) *tenantState {
	ts := s.tenants[tenant]
	if ts == nil {
		ts = &tenantState{
			tier:      DefaultTierName,
			weight:    1,
			queueHist: s.metrics.Histogram(obs.TenantSeries("sched.queue_ns", "tenant", tenant)),
			runHist:   s.metrics.Histogram(obs.TenantSeries("sched.run_ns", "tenant", tenant)),
			dramCtr:   s.metrics.FloatCounter(obs.TenantSeries("tenant.dram_ns", "tenant", tenant)),
			energyCtr: s.metrics.FloatCounter(obs.TenantSeries("tenant.energy_pj", "tenant", tenant)),
		}
		s.tenants[tenant] = ts
	}
	return ts
}

// tierLocked returns the tier's state, creating it (with its registry
// series) on first sight. Caller holds mu (or runs in New before the
// workers start).
func (s *Scheduler) tierLocked(t Tier) *tierState {
	tst := s.tiers[t.Name]
	if tst == nil {
		tst = &tierState{
			cfg:             t,
			dispatched:      s.metrics.Counter(obs.TenantSeries("sched.tier_dispatched", "tier", t.Name)),
			rejected:        s.metrics.Counter(obs.TenantSeries("sched.tier_rejected", "tier", t.Name)),
			deadlineRejects: s.metrics.Counter(obs.TenantSeries("sched.tier_deadline_rejects", "tier", t.Name)),
			preempts:        s.metrics.Counter(obs.TenantSeries("sched.tier_preempts", "tier", t.Name)),
			modeledCtr:      s.metrics.FloatCounter(obs.TenantSeries("sched.tier_modeled_ns", "tier", t.Name)),
			gQueued:         s.metrics.Gauge(obs.TenantSeries("sched.tier_queued", "tier", t.Name)),
		}
		s.tiers[t.Name] = tst
	}
	return tst
}

// tenantStateCap bounds how many per-tenant records the scheduler
// retains: beyond it, records of idle tenants (nothing queued or
// running) are evicted oldest-iteration-order-first, so unbounded
// tenant cardinality — millions of distinct IDs, or an ID per request
// — cannot grow the scheduler's memory or Stats cost without bound.
// The global counters are unaffected; an evicted tenant that returns
// simply starts a fresh per-tenant record.
const tenantStateCap = 4096

// reactivationLagJobs bounds the virtual-time credit a tenant keeps
// across a brief idle gap: on re-activation its virtual time is
// clamped to the scheduler's clock minus this many average jobs'
// weighted charge. Zero lag would make weighted shares fragile for
// closed-loop clients (every momentary queue drain forfeits the
// tenant's earned position); unbounded lag would let a long-idle
// tenant return and starve everyone. Two jobs covers the
// completion-to-resubmission gap without meaningfully distorting
// shares.
const reactivationLagJobs = 2

// finishLocked resolves a job and updates the counters. canceled
// marks jobs that never ran (context expired in queue, or drained by
// Close). Resolving stops the job's queued-cancel registration. Caller
// holds mu.
func (s *Scheduler) finishLocked(j *Ticket, err error, canceled bool) {
	if j.fin {
		return
	}
	j.fin = true
	j.err = err
	if j.stop != nil {
		j.stop()
	}
	ts := s.tenantLocked(j.tenant)
	switch {
	case canceled:
		s.canceled.Inc()
		ts.canceled++
	case err != nil:
		s.failed.Inc()
		ts.failed++
	default:
		s.completed.Inc()
		ts.completed++
	}
	ts.busyNs += j.runNs
	ts.waitNs += j.queueNs
	// Calibration: completed jobs that carried a modeled-cost estimate
	// teach the scheduler how many wall nanoseconds one modeled
	// nanosecond costs on this host, which is what turns the queued
	// modeled backlog into a wall-clock wait prediction at admission.
	if j.started && j.chargeNs > 0 && j.runNs > 0 {
		ratio := float64(j.runNs) / j.chargeNs
		s.calib = 0.875*s.calib + 0.125*ratio
	}
	// Latency distributions: every finished job contributes its queue
	// wait; only jobs that actually ran contribute run and end-to-end
	// times (a canceled-in-queue job has no run to speak of).
	s.queueHist.Observe(j.queueNs)
	ts.queueHist.Observe(j.queueNs)
	if j.started {
		s.runHist.Observe(j.runNs)
		ts.runHist.Observe(j.runNs)
		s.jobHist.Observe(j.queueNs + j.runNs)
	}
	close(j.done)
	if len(s.tenants) > tenantStateCap {
		for name, t := range s.tenants {
			if len(t.queue) == 0 && t.running == 0 {
				delete(s.tenants, name)
				if len(s.tenants) <= tenantStateCap {
					break
				}
			}
		}
	}
}

// worker is one executor loop: wait for work, run it with its
// context's Done channel as the cancel signal, resolve the ticket.
func (s *Scheduler) worker(w int) {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		for !s.closed && s.queued == 0 {
			s.cond.Wait()
		}
		j := s.pop()
		if j == nil {
			if s.closed {
				s.mu.Unlock()
				return
			}
			continue
		}
		if j.ctx.Err() != nil {
			// Canceled while queued; its AfterFunc callback has not
			// reaped it yet.
			j.queueNs = durationNs(j.queuedAt, time.Now())
			s.finishLocked(j, j.ctx.Err(), true)
			continue
		}
		j.started = true
		ts := s.tenants[j.tenant]
		ts.running++
		s.running++
		s.gRunning.Set(int64(s.running))
		tst := s.tiers[j.tier]
		if tst != nil {
			tst.running++
		}
		s.mu.Unlock()

		start := time.Now()
		j.queueNs = durationNs(j.queuedAt, start)
		j.trace.Record("queue", 0, j.queuedAt, start)
		err := runTask(j.run, w, j.ctx.Done())
		j.runNs = durationNs(start, time.Now())
		j.worker = w

		s.mu.Lock()
		ts.running--
		s.running--
		s.gRunning.Set(int64(s.running))
		if tst != nil {
			tst.running--
		}
		s.finishLocked(j, err, false)
	}
}

// runTask runs one job closure, containing a panic as that job's
// error: a bad request from one tenant must not take down the workers
// serving everyone else.
func runTask(t Task, w int, cancel <-chan struct{}) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: job panicked: %v", r)
		}
	}()
	return t(w, cancel)
}

// Close stops admission, fails every still-queued job with ErrClosed,
// waits for running jobs to finish, and stops the workers. Idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	for {
		j := s.pop()
		if j == nil {
			break
		}
		j.queueNs = durationNs(j.queuedAt, time.Now())
		s.finishLocked(j, ErrClosed, true)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// TenantStats is one tenant's point-in-time counters.
type TenantStats struct {
	// Tier is the QoS tier the tenant's submissions currently resolve
	// to; Weight its effective dispatch weight.
	Tier   string
	Weight float64

	Submitted, Completed, Failed, Rejected, Canceled uint64
	Queued, Running                                  int
	// BusyNs is cumulative wall time the tenant's jobs spent running;
	// WaitNs cumulative time they spent queued. Monotonic, never
	// negative, regardless of the order jobs complete in.
	BusyNs, WaitNs int64
	// ModeledNs and EnergyPJ are the tenant's bill: the cumulative
	// modeled DRAM time and energy reported via Observe, zero unless
	// the execution layer feeds its stats back. A record evicted by the
	// tenant-state cap takes its bill with it.
	ModeledNs, EnergyPJ float64
	// Queue/Run quantiles come from the tenant's log-scale latency
	// histograms (relative error bounded at 1/8): honest tail latency
	// per tenant, not a mean in disguise. Zero until a job finishes.
	QueueP50Ns, QueueP99Ns, QueueP999Ns int64
	RunP50Ns, RunP99Ns, RunP999Ns       int64
}

// TierStats is one tier's point-in-time counters and merged latency
// distribution: the quantiles come from merging every member tenant's
// queue/run histograms bucket-wise, so when all tenants share one tier
// the tier quantiles equal the whole-population quantiles exactly.
type TierStats struct {
	Weight   float64
	Priority int
	// Tenants is how many tenants currently resolve to this tier.
	Tenants         int
	Queued, Running int
	// Dispatched counts jobs this tier's tenants have had dispatched;
	// Rejected its admission rejections (all reasons); DeadlineRejects
	// the subset rejected with ErrDeadlineInfeasible; Preempts how many
	// dispatches this tier took while boosted past queued
	// lower-priority work.
	Dispatched, Rejected, DeadlineRejects, Preempts uint64
	// ModeledNs is the cumulative modeled cost charged to this tier at
	// dispatch — the tier's consumption in DRAM-ns, whose ratio across
	// tiers is the achieved weighted share. It sums admission prices
	// (Request.ModeledNs), not executed time; the serving layer prices
	// a plan-cache hit at exactly its executed time.
	ModeledNs float64
	// Merged queue/run latency quantiles over the tier's tenants.
	QueueP50Ns, QueueP99Ns, QueueP999Ns int64
	RunP50Ns, RunP99Ns, RunP999Ns       int64
}

// Stats is a point-in-time snapshot of the scheduler.
type Stats struct {
	Workers                                          int
	Queued, Running                                  int
	Submitted, Completed, Failed, Rejected, Canceled uint64
	Tenants                                          map[string]TenantStats
	// Tiers holds one entry per declared tier (plus any tier that has
	// seen traffic, including the implicit default).
	Tiers map[string]TierStats
}

// Stats returns a snapshot of the scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Workers: s.cfg.Workers,
		Queued:  s.queued, Running: s.running,
		Submitted: s.submitted.Value(), Completed: s.completed.Value(), Failed: s.failed.Value(),
		Rejected: s.rejected.Value(), Canceled: s.canceled.Value(),
		Tenants: make(map[string]TenantStats, len(s.tenants)),
		Tiers:   make(map[string]TierStats, len(s.tiers)),
	}
	// Per-tier merged histograms accumulate across member tenants while
	// we walk them once.
	type tierAgg struct{ queue, run obs.HistSnapshot }
	aggs := map[string]*tierAgg{}
	for name, ts := range s.tenants {
		qh, rh := ts.queueHist.Snapshot(), ts.runHist.Snapshot()
		st.Tenants[name] = TenantStats{
			Tier: ts.tier, Weight: ts.weight,
			Submitted: ts.submitted, Completed: ts.completed, Failed: ts.failed,
			Rejected: ts.rejected, Canceled: ts.canceled,
			Queued: len(ts.queue), Running: ts.running,
			BusyNs: ts.busyNs, WaitNs: ts.waitNs,
			ModeledNs: ts.modeledNs, EnergyPJ: ts.energyPJ,
			QueueP50Ns: qh.Quantile(0.50), QueueP99Ns: qh.Quantile(0.99), QueueP999Ns: qh.Quantile(0.999),
			RunP50Ns: rh.Quantile(0.50), RunP99Ns: rh.Quantile(0.99), RunP999Ns: rh.Quantile(0.999),
		}
		agg := aggs[ts.tier]
		if agg == nil {
			agg = &tierAgg{}
			aggs[ts.tier] = agg
		}
		agg.queue.Merge(qh)
		agg.run.Merge(rh)
	}
	for name, tst := range s.tiers {
		t := TierStats{
			Weight: tst.cfg.Weight, Priority: tst.cfg.Priority,
			Queued: tst.queued, Running: tst.running,
			Dispatched: tst.dispatched.Value(), Rejected: tst.rejected.Value(),
			DeadlineRejects: tst.deadlineRejects.Value(), Preempts: tst.preempts.Value(),
			ModeledNs: tst.modeledCtr.Value(),
		}
		for _, ts := range s.tenants {
			if ts.tier == name {
				t.Tenants++
			}
		}
		if agg := aggs[name]; agg != nil {
			t.QueueP50Ns = agg.queue.Quantile(0.50)
			t.QueueP99Ns = agg.queue.Quantile(0.99)
			t.QueueP999Ns = agg.queue.Quantile(0.999)
			t.RunP50Ns = agg.run.Quantile(0.50)
			t.RunP99Ns = agg.run.Quantile(0.99)
			t.RunP999Ns = agg.run.Quantile(0.999)
		}
		st.Tiers[name] = t
	}
	return st
}

// durationNs returns b−a in nanoseconds, clamped at zero — the
// queue-era monotonic guard. Go's time.Time carries a monotonic
// reading, so Sub normally cannot go backwards across wall-clock
// adjustments; the clamp covers values that lost that reading
// (serialization round-trips, explicit wall arithmetic) and pins the
// invariant the stats layer relies on: per-job durations are
// non-negative no matter in what order jobs complete.
func durationNs(a, b time.Time) int64 {
	d := b.Sub(a).Nanoseconds()
	if d < 0 {
		return 0
	}
	return d
}
