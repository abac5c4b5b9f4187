package simdram

import (
	"context"
	"sync"
	"time"

	"simdram/internal/ctrl"
	"simdram/internal/graph"
	"simdram/internal/obs"
	"simdram/internal/sched"
)

// Admission errors a Server surfaces from SubmitJob/SubmitFn. All are
// immediate rejections — the job was never queued — and arrive wrapped
// in an *AdmissionError carrying the reason, tier, and admission-time
// estimate; errors.Is against these sentinels keeps working unchanged.
var (
	// ErrQueueFull reports that the server's bounded job queue is at
	// capacity (or that a tier's MaxQueueNs backlog bound shed the
	// submission).
	ErrQueueFull = sched.ErrQueueFull
	// ErrTenantQuota reports that the submitting tenant already has its
	// quota of queued plus running jobs.
	ErrTenantQuota = sched.ErrTenantQuota
	// ErrDeadlineInfeasible reports that a submission's deadline cannot
	// be met at the current queue depth: estimated queue wait plus the
	// job's modeled run time lands past the deadline, so the job was
	// rejected at admission rather than queued to miss it.
	ErrDeadlineInfeasible = sched.ErrDeadlineInfeasible
	// ErrServerClosed reports submission to a closed server, or a job
	// drained from the queue by Close.
	ErrServerClosed = sched.ErrClosed
)

// AdmissionError is the typed rejection every admission failure
// unwraps from: which rule fired (Reason), for whom (Tenant, Tier),
// and what the scheduler believed at the moment it said no
// (QueueDepth, EstimatedWaitNs, ModeledNs). Use errors.As to inspect
// it, errors.Is against the sentinels above to branch on the reason.
type AdmissionError = sched.AdmissionError

// Tier declares one QoS class for ServerConfig.Tiers: Weight buys its
// tenants a proportional share of dispatch, Priority orders tiers for
// SLO-burn preemption of queued lower-tier work, and MaxQueueNs (when
// positive) sheds submissions whose estimated queue wait exceeds it.
type Tier = sched.Tier

// ServerConfig configures a Server.
type ServerConfig struct {
	// Channels is the number of independent channels — the worker pool:
	// each channel is a full System and runs one job at a time, so up
	// to Channels jobs execute concurrently.
	Channels int
	// Channel configures every channel's System.
	Channel Config
	// QueueDepth bounds jobs queued across all tenants; submissions
	// beyond it fail with ErrQueueFull. Defaults to 8× Channels.
	QueueDepth int
	// TenantQuota bounds one tenant's queued plus running jobs;
	// submissions beyond it fail with ErrTenantQuota. 0 means no
	// per-tenant bound.
	TenantQuota int
	// PlanCacheSize bounds the shared compiled-plan cache. Defaults to
	// DefaultPlanCacheSize; negative disables caching. A cached shape's
	// profile and admission price live in its cache entry, so evicting
	// the shape forgets its profile too, and a disabled cache turns
	// profile feedback off.
	PlanCacheSize int
	// ProfileThreshold is the relative divergence between a shape's
	// mean measured per-op latencies and the static cost model beyond
	// which the server invalidates the shape's cached plan and
	// recompiles it with observed costs. Defaults to
	// DefaultProfileThreshold; negative disables profile feedback.
	ProfileThreshold float64
	// ProfileMinJobs is how many executed jobs must fold into a shape's
	// profile before divergence can trigger a recompile. Defaults to
	// DefaultProfileMinJobs.
	ProfileMinJobs int
	// TraceSampling is the fraction of submitted jobs that get a span
	// trace (1.0 = every job, 0 = tracing disabled — the default, and
	// strictly allocation-free on the job hot path; fractions become
	// deterministic every-Nth sampling).
	TraceSampling float64
	// TraceDepth bounds how many completed job traces the flight
	// recorder retains (the trace ring). Defaults to 64.
	TraceDepth int
	// EventDepth bounds how many error/eviction/recompile events the
	// flight recorder retains. Defaults to 256.
	EventDepth int
	// SLOs declares latency objectives the server evaluates continuously
	// against its windowed latency histograms, emitting burn-rate "slo"
	// events into the flight recorder when one starts breaching. See the
	// SLO type for the metric syntax; invalid SLOs fail NewServer.
	SLOs []SLO
	// Tiers declares the QoS classes submissions may name in
	// JobSpec.Tier. An empty or undeclared tier resolves to the
	// configured "default" tier if one exists, else to an implicit
	// weight-1 priority-0 default. While a tier's SLOs are burning, its
	// priority preempts queued work of strictly lower-priority tiers.
	Tiers []Tier
	// VerifyPlans is ignored: every plan passes the static IR verifier
	// (internal/verify) before it executes; see Server.VerifiedPlans.
	//
	// Deprecated: verification is always on, so setting this has no
	// effect.
	VerifyPlans bool
}

// DefaultServerConfig returns a server of n default-geometry channels
// with a 8n-deep queue, no per-tenant quota, and the default plan
// cache.
func DefaultServerConfig(n int) ServerConfig {
	return ServerConfig{Channels: n, Channel: DefaultConfig()}
}

// Server is the concurrent serving layer over a cluster of channels:
// tenants submit jobs — lazy expressions over Input data leaves, or
// raw closures — into a bounded admission queue; a per-tenant fair
// scheduler dispatches each job onto the next free channel; and a
// shared plan cache lets repeated request shapes skip graph
// optimization and scheduling entirely. A shape that keeps hitting
// the plan cache on a channel becomes resident there: the channel keeps
// the shape's storage and prepared program, and each later job of the
// shape pays only for storing its inputs, running and loading. A
// canceled or deadline-expired submission context preempts
// the job: while queued it is dropped on the spot, while running the
// batch engine stops issuing instructions (ctrl.RunOpts.Cancel) and
// the future resolves with the cancellation error.
//
//	srv, _ := simdram.NewServer(simdram.DefaultServerConfig(4))
//	defer srv.Close()
//	e := simdram.Input(pixels, 16).Add(simdram.Scalar(20, 16))
//	fut, _ := srv.SubmitJob(ctx, simdram.JobSpec{Tenant: "tenant-a"}, e)
//	res, _ := fut.Wait()   // res.Values[0] holds the result elements
//
// Submitted expressions must be self-contained (Input and Scalar
// leaves only): the channel that will run a job is not known at
// submission time, so an expression bound to a particular System's
// vectors is rejected.
type Server struct {
	cfg      ServerConfig
	channels []*System
	sched    *sched.Scheduler
	// plans holds every served shape's plan, profile and admission
	// price (see graph.PlanCache).
	plans *graph.PlanCache

	// Observability: one registry for every layer's counters and
	// latency histograms, a sampling-gated tracer handing span trees to
	// the flight recorder, and the recorder's rings of recent traces
	// and events. See docs/observability.md.
	metrics *obs.Registry
	tracer  *obs.Tracer
	rec     *obs.FlightRecorder

	// Device telemetry: per-channel/bank/tenant resource attribution,
	// windowed rates, and SLO tracking (see server_device.go). epoch
	// anchors the monotonic telemetry clock; the pump goroutine samples
	// the rings every telemetrySlice until Close.
	dev      *deviceTelemetry
	slos     []*sloTracker
	epoch    time.Time
	pumpStop chan struct{}
	pumpDone chan struct{}

	// hits holds one memo of resident shapes per channel for served
	// plan-cache hits (see hitMemo).
	hits []hitMemo

	closeOnce sync.Once
}

// NewServer builds the channels and starts the scheduler's worker
// pool (one worker per channel).
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Channels < 1 {
		return nil, errorf("server needs at least 1 channel, have %d", cfg.Channels)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 8 * cfg.Channels
	}
	if cfg.PlanCacheSize == 0 {
		cfg.PlanCacheSize = DefaultPlanCacheSize
	}
	if cfg.ProfileThreshold == 0 {
		cfg.ProfileThreshold = DefaultProfileThreshold
	}
	if cfg.ProfileMinJobs == 0 {
		cfg.ProfileMinJobs = DefaultProfileMinJobs
	}
	channels := make([]*System, cfg.Channels)
	for i := range channels {
		sys, err := New(cfg.Channel)
		if err != nil {
			return nil, err
		}
		channels[i] = sys
	}
	if cfg.TraceDepth == 0 {
		cfg.TraceDepth = 64
	}
	if cfg.EventDepth == 0 {
		cfg.EventDepth = 256
	}
	s := &Server{
		cfg:      cfg,
		channels: channels,
		plans:    graph.NewPlanCache(cfg.PlanCacheSize, cfg.ProfileThreshold, cfg.ProfileMinJobs),
		metrics:  obs.NewRegistry(),
		hits:     make([]hitMemo, cfg.Channels),
	}
	s.rec = obs.NewFlightRecorder(cfg.TraceDepth, cfg.EventDepth)
	s.tracer = obs.NewTracer(cfg.TraceSampling, s.rec)
	evictions := s.metrics.Counter("server.plan_evictions")
	s.plans.SetEvictHook(func(key string, hits uint64) {
		evictions.Inc()
		s.rec.Eventf("evict", "plan evicted after %d hits (key %.24q…)", hits, key)
	})
	s.sched = sched.New(sched.Config{
		Workers:     cfg.Channels,
		QueueDepth:  cfg.QueueDepth,
		TenantQuota: cfg.TenantQuota,
		Tiers:       cfg.Tiers,
		Metrics:     s.metrics,
	})
	s.epoch = time.Now()
	s.dev = newDeviceTelemetry(cfg.Channels, channels[0].mod.NumBanks(), s.metrics)
	var err error
	s.slos, err = newSLOTrackers(cfg.SLOs, s.metrics)
	if err != nil {
		s.sched.Close()
		return nil, err
	}
	s.pumpStop = make(chan struct{})
	s.pumpDone = make(chan struct{})
	go s.pump()
	return s, nil
}

// Config returns the server configuration (with defaults applied).
func (s *Server) Config() ServerConfig { return s.cfg }

// VerifiedPlans returns how many programs the IR verifier has checked
// and passed across the server's channels. Every prepared plan is
// checked before it executes: def-before-use, operand aliasing,
// width/arity/opcode consistency, binding bounds, and an independent
// hazard-edge recomputation cross-checked against the scheduler's
// dependence graph. A failing plan rejects the job with typed
// *verify.Diagnostic errors instead of computing wrong results. A
// replayed plan-cache hit runs a program verified when it was first
// prepared.
func (s *Server) VerifiedPlans() int64 {
	var total int64
	for _, sys := range s.channels {
		total += sys.VerifiedPlans()
	}
	return total
}

// Close stops admission, fails queued jobs with ErrServerClosed,
// waits for running jobs, stops the telemetry pump, and releases every
// channel.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.pumpStop)
		<-s.pumpDone
	})
	s.sched.Close()
	for i := range s.hits {
		s.hits[i].clear()
	}
	for _, sys := range s.channels {
		sys.Close()
	}
}

// JobSpec carries a submission's QoS intent: who is submitting, under
// which declared tier, with what optional deadline and weight
// override. The zero value plus Tenant submits under the default tier
// with no deadline.
type JobSpec struct {
	// Tenant identifies the submitter for fairness, quota, quantiles,
	// and billing.
	Tenant string
	// Tier names a ServerConfig.Tiers entry; empty or undeclared
	// resolves to the configured "default" tier, else an implicit
	// weight-1 default.
	Tier string
	// Deadline, when set, makes admission reject the job with
	// ErrDeadlineInfeasible if estimated queue wait plus modeled run
	// time cannot meet it — the job is never queued just to miss it.
	Deadline time.Time
	// Weight, when positive, overrides the tier's dispatch weight for
	// this tenant from this submission on.
	Weight float64
}

// AdmissionEstimate is what admission predicted for a job, surfaced in
// JobResult so callers can audit predicted against actual latency.
type AdmissionEstimate struct {
	// EstimatedWaitNs is the queue wait admission predicted (compare
	// with JobResult.QueueNs); ModeledNs the modeled run cost the job
	// was priced with — the exact cached-plan makespan on a plan-cache
	// hit, the static cost model's estimate on a cold shape.
	EstimatedWaitNs int64
	ModeledNs       float64
}

// JobResult is what a completed lazy job produced.
type JobResult struct {
	// Values holds one loaded result slice per submitted root
	// expression, in submission order. Nil for SubmitFn jobs.
	Values [][]uint64
	// Batch is the modeled cost of the executed batch (zero if the
	// whole job folded away).
	Batch BatchStats
	// Compile reports what the compiler did — Compile.CacheHit tells
	// whether the job reused a cached plan.
	Compile CompileStats
	// Channel is the cluster channel the job ran on.
	Channel int
	// QueueNs and RunNs are the job's wall-clock queue wait and
	// execution time (monotonic, never negative).
	QueueNs, RunNs int64
	// TraceID identifies this job's span tree in Server.Traces() when
	// the job was sampled for tracing; 0 when it was not.
	TraceID uint64
	// Admission is what admission control predicted for this job at
	// submission time.
	Admission AdmissionEstimate
}

// Future is the caller's handle on a submitted job.
type Future struct {
	t    *sched.Ticket
	res  *JobResult
	once sync.Once
	err  error
}

// Done returns a channel closed when the job finishes.
func (f *Future) Done() <-chan struct{} { return f.t.Done() }

// Wait blocks until the job finishes and returns its result. On error
// (execution failure, cancellation, server close) the result is nil.
func (f *Future) Wait() (*JobResult, error) {
	f.once.Do(func() {
		f.err = f.t.Wait()
		f.res.Channel = f.t.Worker()
		f.res.QueueNs = f.t.QueueNs()
		f.res.RunNs = f.t.RunNs()
	})
	<-f.t.Done() // later callers of a shared Future still block
	if f.err != nil {
		return nil, f.err
	}
	return f.res, nil
}

// SubmitJob enqueues the expressions as one job under the spec's QoS
// intent: on whichever channel comes free, the graph compiles (or
// reuses a cached plan), Input payloads are stored, the batch
// executes, and every root's value is loaded into the JobResult. No
// data outlives the request: the job's storage is released before the
// future resolves, or, for a shape resident on the channel, kept only
// to be overwritten by the shape's next job — which is what lets
// millions of requests stream through a fixed set of channels.
//
// Admission prices the job before queueing it: the expression graph's
// modeled critical path (exact scheduled makespan on a plan-cache
// hit, static cost model on a cold shape) feeds the scheduler's
// deadline and tier-backlog checks, and the resulting estimate is
// surfaced in JobResult.Admission. SubmitJob never blocks on a full
// queue; it fails immediately with a typed *AdmissionError (wrapping
// ErrQueueFull, ErrTenantQuota, or ErrDeadlineInfeasible) or the
// context's error. ctx may be nil (never cancels).
func (s *Server) SubmitJob(ctx context.Context, spec JobSpec, exprs ...*Expr) (*Future, error) {
	if len(exprs) == 0 {
		return nil, errorf("server: nothing to submit")
	}
	// A sampled job carries a trace whose root "job" span opens here,
	// before admission pricing, which the "admit" span covers; the
	// scheduler records the "queue" span when a worker picks the job
	// up, from the same admission and dispatch timestamps QueueNs is
	// measured between. A job rejected at admission or canceled while
	// still queued never reaches the worker, so its unfinished trace is
	// dropped rather than recorded; a cancellation still lands in the
	// event ring below.
	res := &JobResult{}
	tr := s.tracer.Start()
	if tr != nil {
		res.TraceID = tr.ID
	}
	// The job's IR graph and plan-cache key are built once, here, in one
	// walk of its expressions: they price the job, and the worker
	// compiles from them. An expression a Server cannot run on any
	// channel is rejected outright. Pricing is best-effort: a malformed
	// expression (e.g. element-count mismatch) keeps its contract of
	// failing the future at run time — it is admitted unpriced and fails
	// with the compiler's error.
	aspan := tr.Begin("admit", 0)
	env, envErr := buildEnv(s.channels[0], nil, CompileOptions{}, exprs, true)
	if _, ok := envErr.(unservable); ok {
		return nil, envErr
	}
	var modeled float64
	if envErr == nil {
		modeled = s.estimateModeledNs(env)
	}
	tr.End(aspan)
	tenant := spec.Tenant
	t, err := s.sched.SubmitRequest(ctx, sched.Request{
		Tenant: tenant, Tier: spec.Tier, Weight: spec.Weight,
		Deadline: spec.Deadline, ModeledNs: modeled, Trace: tr,
	}, func(worker int, cancel <-chan struct{}) error {
		at := s.dev.attrFor(worker)
		runStart := time.Now()
		err := envErr
		if err == nil {
			err = s.runLazy(s.channels[worker], worker, cancel, env, exprs, res, tr, at)
			env.recycle()
		}
		if err == nil {
			// Feed the executed batch's modeled DRAM time back into the
			// scheduler's per-tenant accounting, and bill the device
			// attribution to the tenant and the channel that ran it.
			s.sched.Observe(tenant, res.Batch.CriticalPathNs)
			s.dev.observeJob(tenant, worker, at, int64(time.Since(runStart)))
		} else {
			tr.SetErr(err.Error())
			s.rec.Eventf("error", "tenant %s: %v", tenant, err)
		}
		s.tracer.Finish(tr)
		return err
	})
	if err != nil {
		if env != nil {
			env.recycle()
		}
		return nil, err
	}
	res.Admission = AdmissionEstimate{EstimatedWaitNs: t.EstimatedWaitNs(), ModeledNs: t.ModeledNs()}
	return &Future{t: t, res: res}, nil
}

// SubmitFn enqueues a raw job under the spec's QoS intent: fn runs
// with exclusive use of one channel's System and the scheduler's
// cancellation signal (closed when ctx expires). It is the escape
// hatch for work the expression graph cannot phrase — multi-batch
// kernels, fault injection, experiments — under the same admission
// control and fairness as lazy jobs. Raw jobs carry no modeled cost
// estimate, so a deadline is checked against the estimated queue wait
// plus the scheduler's trailing average job cost. fn finds every data
// row free that a server without plan-cache replays would leave free:
// the channel first releases the rows its memo of served shapes holds
// (see hitMemo). fn must release every vector it allocates before
// returning.
func (s *Server) SubmitFn(ctx context.Context, spec JobSpec, fn func(sys *System, cancel <-chan struct{}) error) (*Future, error) {
	if fn == nil {
		return nil, errorf("server: nil job")
	}
	tenant := spec.Tenant
	res := &JobResult{}
	tr := s.tracer.Start()
	if tr != nil {
		res.TraceID = tr.ID
	}
	t, err := s.sched.SubmitRequest(ctx, sched.Request{
		Tenant: tenant, Tier: spec.Tier, Weight: spec.Weight, Deadline: spec.Deadline, Trace: tr,
	}, func(worker int, cancel <-chan struct{}) error {
		sys := s.channels[worker]
		s.hits[worker].releaseRows()
		espan := tr.BeginOn("execute", 0, worker)
		// Raw jobs drive the System directly, so the finest attribution
		// available is the channel unit's stats delta across the call —
		// race-free because the worker owns the channel for the job's
		// duration.
		before := sys.cu.Stats
		runStart := time.Now()
		err := fn(sys, cancel)
		wallNs := int64(time.Since(runStart))
		tr.End(espan)
		if err != nil {
			tr.SetErr(err.Error())
			s.rec.Eventf("error", "tenant %s: %v", tenant, err)
		} else {
			delta := sys.cu.Stats.Sub(before)
			// BusyNs accumulates batch critical paths, the same modeled
			// DRAM time lazy jobs feed back — keep both pipelines priced
			// in the same unit.
			s.sched.Observe(tenant, delta.BusyNs)
			s.dev.observeRaw(tenant, worker, delta, wallNs)
		}
		s.tracer.Finish(tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Admission = AdmissionEstimate{EstimatedWaitNs: t.EstimatedWaitNs(), ModeledNs: t.ModeledNs()}
	return &Future{t: t, res: res}, nil
}

// estimateModeledNs prices a lazy submission before it is queued from
// its freshly built IR graph (no passes run). A shape the plan cache
// holds is priced at its plan's scheduled makespan — exact for the plan
// that will actually run — under the observed per-op latencies of the
// shape's profile, once it has some; the price is kept in the cache
// entry until the plan changes (PlanCache.Price), and the lookup
// perturbs neither hit rate nor recency. A cold shape falls back to the
// makespan of the unoptimized graph in program order under the static
// cost model.
func (s *Server) estimateModeledNs(env *compileEnv) float64 {
	banks := env.sys.cfg.DRAM.Banks
	if ns, ok := s.plans.Price(env.key, env.sys.model, banks); ok {
		return ns
	}
	return env.g.EstimateMakespanNs(nil, env.sys.model, banks)
}

// hitMemo is one channel's memo of resident prepared programs for
// served plan-cache hits, keyed by plan-cache key. An entry owns the
// whole binding of one job of its shape: every object the job
// allocated, with its rows, and the prepared program that ran over
// them. A later job of the shape that hits the same plan replays the
// entry (see hitEntry.store): it writes its inputs into the entry's
// rows and runs the entry's program, and skips allocating, lowering,
// resolving and preparing (and the IR verifier, whose every input the
// plan and the binding fix), and freeing. The memo keeps placement,
// never results: every replay stores its inputs and computes afresh.
//
// A shape's first plan-cache hit on the channel records only that it
// was seen (an entry with no binding); its next full-path hit keeps
// its binding. Shapes that hit the plan cache once and then go cold
// would otherwise pin rows and prepared programs. At hitMemoCap
// entries a new shape evicts the least recently used entry and
// releases its rows. An entry whose plan the plan cache evicted or
// replaced is released by the shape's next lookup, or else by the cap.
// Rows never fail a job: a shortage of data or scratch rows releases
// every resident entry's rows and the job binds and prepares again,
// on the rows a channel without a memo has free, so a job fails only
// with the error such a channel reports.
//
// Only the channel's scheduler worker touches the memo, and Close
// after the workers stop.
type hitMemo struct {
	entries map[string]*hitEntry
	// clock stamps each entry's last use, for LRU eviction.
	clock uint64
}

// hitEntry is one memoized shape (see hitMemo).
type hitEntry struct {
	used uint64 // hitMemo.clock at the entry's last hit

	// The binding, nil while the shape was only seen. plan and n are
	// what it was lowered from: the key omits the element count, and a
	// profile-guided recompile swaps the cache's plan.
	plan *graph.Plan
	n    int
	lw   *lowered
	pp   *preparedProgram
	// vecs is every object lw owns; stores repeats bindPlan's stores
	// in its order.
	vecs   []*Vector
	stores []residentStore
}

// residentStore is one store a replay repeats: a data leaf's payload
// or, when splat, a constant.
type residentStore struct {
	v     *Vector
	node  graph.NodeID // the data leaf, for its payload
	splat bool
	val   uint64 // the constant
}

// hitMemoCap bounds one channel's memo, seen-only shapes included.
// Each resident entry pins a prepared program and its rows: at 128
// entries, shapes that hit the plan cache a few times and then went
// cold raised serve-adhoc's resident memory by 10–13%.
const hitMemoCap = 16

// lookup returns key's resident entry when it was lowered from plan
// for n elements and its program's scratch rows are free. An entry
// lowered from another plan or element count is released and nil
// returned: the job takes the full path. An entry whose scratch rows
// are taken releases every entry's rows, so the full path finds the
// rows a channel without a memo has.
func (m *hitMemo) lookup(sys *System, key string, plan *graph.Plan, n int) *hitEntry {
	e := m.entries[key]
	if e == nil || e.lw == nil {
		return nil
	}
	m.clock++
	e.used = m.clock
	if e.plan != plan || e.n != n {
		e.release()
		return nil
	}
	if sys.checkScratch(e.pp) != nil {
		m.releaseRows()
		return nil
	}
	return e
}

// record keeps lw and pp, a full-path job's binding and program
// lowered from plan for n elements, as key's entry once key has been
// seen, and reports whether it kept them. A first sighting adds a
// seen-only entry, evicting the least recently used entry at the cap.
func (m *hitMemo) record(key string, plan *graph.Plan, n int, lw *lowered, pp *preparedProgram) bool {
	e, seen := m.entries[key]
	m.clock++
	if seen {
		e.used = m.clock
		if e.lw != nil {
			return false
		}
		e.keep(plan, n, lw, pp)
		return true
	}
	if m.entries == nil {
		m.entries = map[string]*hitEntry{}
	}
	if len(m.entries) >= hitMemoCap {
		var vk string
		var victim *hitEntry
		for k, o := range m.entries {
			if victim == nil || o.used < victim.used {
				vk, victim = k, o
			}
		}
		victim.release()
		delete(m.entries, vk)
	}
	m.entries[key] = &hitEntry{used: m.clock}
	return false
}

// releaseRows releases every entry's rows, leaving the entries seen,
// and reports whether any entry held rows. The worker calls it on a
// row shortage and before a raw job, so the job finds the channel's
// rows as a channel without a memo has them.
func (m *hitMemo) releaseRows() bool {
	held := false
	for _, e := range m.entries {
		held = held || e.lw != nil
		e.release()
	}
	return held
}

// holdsRows reports whether any entry holds rows.
func (m *hitMemo) holdsRows() bool {
	for _, e := range m.entries {
		if e.lw != nil {
			return true
		}
	}
	return false
}

// clear releases every entry and forgets it.
func (m *hitMemo) clear() {
	m.releaseRows()
	m.entries = nil
}

// keep makes lw and pp e's binding.
func (e *hitEntry) keep(plan *graph.Plan, n int, lw *lowered, pp *preparedProgram) {
	e.plan, e.n, e.lw, e.pp = plan, n, lw, pp
	for _, o := range lw.temps {
		e.vecs = append(e.vecs, o.(*Vector))
	}
	for _, r := range lw.results {
		if r.owned {
			e.vecs = append(e.vecs, r.obj.(*Vector))
		}
	}
	e.stores = make([]residentStore, len(lw.stored))
	for i, id := range lw.stored {
		st := residentStore{v: lw.nodeObj[id].(*Vector), node: id}
		if node := plan.Graph.Node(id); node.Kind == graph.KindConst {
			st.splat, st.val = true, node.Val
		}
		e.stores[i] = st
	}
}

// release frees e's binding, leaving e seen only.
func (e *hitEntry) release() {
	if e.lw == nil {
		return
	}
	e.lw.release()
	e.pp.release()
	e.plan, e.lw, e.pp, e.vecs, e.stores = nil, nil, nil, nil, nil
}

// store writes one job's inputs into e's rows: every object gets a
// fresh serial, so the transposition unit's line buffer never hits on
// lines an earlier job transposed, and then each data leaf's payload
// is stored and each constant splatted, in bindPlan's order, so the
// job is charged exactly what the full path charges.
//
//simdram:zeroalloc
func (e *hitEntry) store(sys *System, env *compileEnv) error {
	for _, v := range e.vecs {
		v.serial = sys.nextSerial()
	}
	for _, st := range e.stores {
		var err error
		if st.splat {
			err = st.v.storeSplat(st.val)
		} else {
			err = st.v.Store(env.leafOf[st.node].data)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// bindJob binds plan's objects for one job on sys, storing its
// inputs, and lowers its program; on failure it releases what it bound.
// The job's Vectors come from one slab (see vectorSlab), sized for
// every object bindPlan can allocate: a slot each, storage for each
// live input and constant, and a result per root. The slab is the
// binding's, recycled when it is released.
func bindJob(sys *System, env *compileEnv, plan *graph.Plan, exprs []*Expr) (*lowered, error) {
	g := env.g
	count := len(plan.Asg.SlotWidths) + len(g.Roots())
	for id := 0; id < g.Len(); id++ {
		if g.Node(graph.NodeID(id)).Kind != graph.KindOp && g.Alive(graph.NodeID(id)) {
			count++
		}
	}
	slab := newVectorSlab(sys, env.n, count)
	lw, err := bindPlan(env, plan, exprs, slab.alloc,
		func(id graph.NodeID) graphObj { return nil }, // no vector leaves: admission rejected them
		leafDataOf(env),
	)
	if err != nil {
		slab.recycle()
		return nil, err
	}
	lw.slab = slab
	if err = lw.lowerProgram(env, plan); err != nil {
		lw.release()
		return nil, err
	}
	return lw, nil
}

// runLazy is the per-job serving pipeline on one channel: plan the
// IR graph admission built (cache hit, cold compile, or
// profile-guided recompile), bind payloads, execute with preemptive
// cancellation, fold the measured per-op latencies into the shape's
// profile, load every root, release everything. tr (nil when the job
// is unsampled) receives the pipeline's span tree:
// compile{cache-lookup[, schedule], lower} → prepare[{resolve}] →
// execute[worker]{run} → gather.
//
// A plan-cache hit on a shape the channel's memo holds resident (see
// hitMemo) replays the entry: its "lower" span only stores the inputs
// into the entry's rows, and its "prepare" span only checks the
// entry's program against the System, with no "resolve" child. Any
// other job lowers and prepares in full, and a plan-cache hit then
// records what it bound and prepared; a job that records nothing
// releases its storage before the future resolves.
func (s *Server) runLazy(sys *System, worker int, cancel <-chan struct{}, env *compileEnv, exprs []*Expr, res *JobResult, tr *obs.Trace, at *ctrl.Attribution) error {
	cspan := tr.Begin("compile", 0)
	env.sys = sys
	plan, cst := planExprs(env, s.plans, tr, cspan)
	res.Compile = cst
	if cst.Recompiled {
		s.rec.Eventf("recompile", "profile-guided recompile after %d jobs (key %.24q…)", cst.ProfileJobs, env.key)
	}
	lspan := tr.Begin("lower", cspan)
	memo := &s.hits[worker]
	var lw *lowered
	var pp *preparedProgram
	var err error
	hit := memo.lookup(sys, env.key, plan, env.n)
	if hit != nil {
		lw, pp = hit.lw, hit.pp
		err = hit.store(sys, env)
	} else {
		lw, err = bindJob(sys, env, plan, exprs)
		switch {
		case isRowShortage(err) && memo.releaseRows():
			lw, err = bindJob(sys, env, plan, exprs)
		case err == nil && memo.holdsRows() && sys.scratchShort(lw.prog):
			// Bind anew before the program is verified and prepared:
			// the objects sit wherever the resident rows left room,
			// which can leave no scratch above them.
			memo.releaseRows()
			lw.release()
			lw, err = bindJob(sys, env, plan, exprs)
		}
	}
	tr.End(lspan)
	tr.End(cspan)
	if err != nil {
		return err
	}
	// Results are NOT published onto the expressions (publish): the
	// same expression template may be in flight on several channels at
	// once, and a job's vectors are released or replayed over once it
	// is gathered.
	kept := hit != nil
	defer func() {
		if !kept && lw != nil {
			lw.release()
		}
	}()
	if pp != nil || len(lw.prog) > 0 {
		pspan := tr.Begin("prepare", 0)
		if hit != nil {
			err = sys.checkPrepared(pp)
		} else {
			pp, err = sys.prepareProgramTraced(lw.prog, lw, tr, pspan)
		}
		tr.End(pspan)
		if err != nil {
			return err
		}
		espan := tr.BeginOn("execute", 0, worker)
		rspan := tr.BeginOn("run", espan, worker)
		st, opNs, err := sys.execPrepared(pp, cancel, at)
		tr.End(rspan)
		tr.End(espan)
		if err == nil {
			s.plans.Record(env.key, plan, opNs, sys.model)
			res.Batch = st
		}
		// A full-path program the memo does not keep ran once and is
		// dropped: recycle its storage.
		if hit == nil {
			kept = err == nil && cst.CacheHit && memo.record(env.key, plan, env.n, lw, pp)
			if !kept {
				pp.release()
			}
		}
		if err != nil {
			return err
		}
	}
	gspan := tr.Begin("gather", 0)
	// Every root has the job's element count, so one backing array
	// holds all of them.
	res.Values = make([][]uint64, len(lw.results))
	vals := make([]uint64, len(lw.results)*env.n)
	for i, r := range lw.results {
		res.Values[i] = vals[i*env.n : (i+1)*env.n : (i+1)*env.n]
		if err := r.obj.loadInto(res.Values[i]); err != nil {
			res.Values = nil
			tr.End(gspan)
			return err
		}
	}
	tr.End(gspan)
	return nil
}

// TenantServerStats is one tenant's serving counters: the scheduler's
// (tier, counters, wall and modeled busy time, and queue/run latency
// quantiles from the tenant's log-scale histograms, bounded relative
// error 1/8; ModeledNs is the batch critical path of the tenant's
// completed jobs) plus its share of execution time and its bills.
type TenantServerStats struct {
	sched.TenantStats
	// Utilization is the tenant's share of all execution time the
	// server has performed so far (0 when nothing has run).
	Utilization float64
	// BilledNs/BilledEnergyPJ are the device-attribution pipeline's
	// cumulative bills for the tenant (tenant.dram_ns / tenant.energy_pj
	// series): modeled DRAM time and energy its jobs consumed. BilledNs
	// tracks ModeledNs — the two are computed by independent pipelines
	// and cross-checked by the -serve demo.
	BilledNs       float64
	BilledEnergyPJ float64
}

// TierServerStats is one QoS tier's serving counters: the scheduler's
// per-tier dispatch/rejection/preemption counts, latency quantiles
// merged bucket-wise across the tier's member tenants, and the tier's
// achieved share of all modeled DRAM time the device has executed —
// the number to compare against the configured weight ratio.
type TierServerStats struct {
	sched.TierStats
	// ShareOfDevice is the tier's fraction of the modeled time all
	// tiers consumed (0 when nothing has run).
	ShareOfDevice float64
}

// ServerStats is a point-in-time snapshot of the serving layer.
type ServerStats struct {
	Channels int
	// QueueDepth is the current number of queued jobs; Running the
	// number executing right now.
	QueueDepth, Running                              int
	Submitted, Completed, Failed, Rejected, Canceled uint64
	// Cache reports the shared compiled-plan cache (cost-LRU eviction:
	// see Cache.Policy, Evicted, EvictedHot).
	Cache PlanCacheStats
	// Profile reports the shape-profile aggregation driving
	// profile-guided recompiles.
	Profile ProfileStats
	Tenants map[string]TenantServerStats
	// Tiers holds one entry per declared QoS tier (plus any tier that
	// has seen traffic, including the implicit default).
	Tiers map[string]TierServerStats
	// Rates reports trailing jobs/sec, rejected/sec, and energy/sec over
	// the 1s/10s/60s windows (zero until the telemetry pump has a
	// baseline sample).
	Rates []WindowRates
}

// CacheHitRate returns the plan cache's hit rate.
func (s ServerStats) CacheHitRate() float64 { return s.Cache.HitRate() }

// Stats returns a snapshot of queue depth, admission counters, plan
// cache hit rate, and per-tenant utilization.
func (s *Server) Stats() ServerStats {
	ss := s.sched.Stats()
	st := ServerStats{
		Channels:   s.cfg.Channels,
		QueueDepth: ss.Queued, Running: ss.Running,
		Submitted: ss.Submitted, Completed: ss.Completed, Failed: ss.Failed,
		Rejected: ss.Rejected, Canceled: ss.Canceled,
		Cache:   s.plans.Stats(),
		Profile: s.plans.ProfileStats(),
		Tenants: make(map[string]TenantServerStats, len(ss.Tenants)),
		Tiers:   make(map[string]TierServerStats, len(ss.Tiers)),
		Rates:   s.dev.rates(s.nowNs(), ss.Completed, ss.Rejected),
	}
	var totalTierModeled float64
	for _, ts := range ss.Tiers {
		totalTierModeled += ts.ModeledNs
	}
	for name, ts := range ss.Tiers {
		t := TierServerStats{TierStats: ts}
		if totalTierModeled > 0 {
			t.ShareOfDevice = ts.ModeledNs / totalTierModeled
		}
		st.Tiers[name] = t
	}
	bills := s.dev.snapshot().Tenants
	var totalBusy int64
	for _, ts := range ss.Tenants {
		totalBusy += ts.BusyNs
	}
	for name, ts := range ss.Tenants {
		t := TenantServerStats{TenantStats: ts}
		if totalBusy > 0 {
			t.Utilization = float64(ts.BusyNs) / float64(totalBusy)
		}
		if b, ok := bills[name]; ok {
			t.BilledNs = b.DRAMNs
			t.BilledEnergyPJ = b.EnergyPJ
		}
		st.Tenants[name] = t
	}
	return st
}
