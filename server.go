package simdram

import (
	"context"
	"slices"
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
	// DefaultPlanCacheSize; negative disables caching.
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
// optimization and scheduling entirely. A repeated shape whose storage
// lands where it did last time on its channel also skips lowering and
// preparation: it replays the channel's prepared program for the shape
// and pays only for allocating, storing its inputs, running and
// loading. A canceled or deadline-expired submission context preempts
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
	cl       *Cluster
	sched    *sched.Scheduler
	plans    *graph.PlanCache
	profiles *graph.ProfileStore

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

	// estCache memoizes admission-pricing makespans per plan-cache key,
	// invalidated by plan identity (a profile-guided recompile swaps the
	// plan and forces a reprice). Without it every submission of a hot
	// shape re-walks the plan's schedule, which is slow enough to become
	// the submission bottleneck for high-rate tenants.
	estMu    sync.Mutex
	estCache map[string]estEntry

	// hits holds one prepared-program memo per channel for served
	// plan-cache hits (see runLazy).
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
	cl, err := NewCluster(ClusterConfig{Channels: cfg.Channels, Channel: cfg.Channel, Placement: PlaceRoundRobin})
	if err != nil {
		return nil, err
	}
	if cfg.TraceDepth == 0 {
		cfg.TraceDepth = 64
	}
	if cfg.EventDepth == 0 {
		cfg.EventDepth = 256
	}
	s := &Server{
		cfg:      cfg,
		cl:       cl,
		plans:    graph.NewPlanCache(cfg.PlanCacheSize),
		profiles: graph.NewProfileStore(cfg.ProfileThreshold, cfg.ProfileMinJobs, 4*cfg.PlanCacheSize),
		metrics:  obs.NewRegistry(),
		estCache: map[string]estEntry{},
		hits:     make([]hitMemo, cfg.Channels),
	}
	s.rec = obs.NewFlightRecorder(cfg.TraceDepth, cfg.EventDepth)
	s.tracer = obs.NewTracer(cfg.TraceSampling, s.rec)
	evictions := s.metrics.Counter("server.plan_evictions")
	s.plans.SetEvictHook(func(key string, hits uint64) {
		for i := range s.hits {
			s.hits[i].drop(key)
		}
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
	s.dev = newDeviceTelemetry(cfg.Channels, cl.Channel(0).mod.NumBanks(), s.metrics)
	s.slos, err = newSLOTrackers(cfg.SLOs, s.metrics)
	if err != nil {
		s.sched.Close()
		cl.Close()
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
func (s *Server) VerifiedPlans() int64 { return s.cl.VerifiedPlans() }

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
	s.cl.Close()
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
// executes, and every root's value is loaded into the JobResult. All
// storage the job touched is released before the future resolves —
// nothing outlives the request, which is what lets millions of
// requests stream through a fixed set of channels.
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
	seen := seenPool.Get().(map[*Expr]bool)
	var err error
	for _, e := range exprs {
		if err = checkServable(e, seen); err != nil {
			break
		}
	}
	size := len(seen)
	clear(seen)
	seenPool.Put(seen)
	if err != nil {
		return nil, err
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
	// The job's IR graph and plan-cache key are built once, here: they
	// price the job, and the worker compiles from them. Pricing is
	// best-effort: a malformed expression (e.g. element-count mismatch)
	// keeps its contract of failing the future at run time — it is
	// admitted unpriced and fails with the compiler's error.
	aspan := tr.Begin("admit", 0)
	env, envErr := buildEnv(s.cl.Channel(0), nil, CompileOptions{}, exprs, size)
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
			err = s.runLazy(s.cl.Channel(worker), worker, cancel, env, exprs, res, tr, at)
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
// plus the scheduler's trailing average job cost. fn must release
// every vector it allocates before returning.
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
		espan := tr.BeginOn("execute", 0, worker)
		// Raw jobs drive the System directly, so the finest attribution
		// available is the channel unit's stats delta across the call —
		// race-free because the worker owns the channel for the job's
		// duration.
		sys := s.cl.Channel(worker)
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
// its freshly built IR graph (no passes run): the graph's canonical key
// probes the plan cache without perturbing hit-rate or recency
// (PlanCache.Peek). A hit prices the job at the cached plan's
// scheduled makespan — exact for the plan that will actually run; a
// cold shape falls back to the makespan of the unoptimized graph in
// program order under the static cost model. Either way the cost
// model is upgraded to observed per-op latencies once the shape's
// profile has enough jobs (ProfileStore.ScheduleCost).
func (s *Server) estimateModeledNs(env *compileEnv) float64 {
	key := env.key
	cfg := planCfg(env.sys, nil)
	plan := s.plans.Peek(key)
	if plan != nil {
		s.estMu.Lock()
		if e, ok := s.estCache[key]; ok && e.plan == plan {
			s.estMu.Unlock()
			return e.ns
		}
		s.estMu.Unlock()
	}
	cost := s.profiles.ScheduleCost(key, modelCost(cfg))
	if plan == nil {
		return env.g.EstimateMakespanNs(env.g.ProgramOrder(), cost, cfg.DRAM.Banks)
	}
	ns := plan.Graph.EstimateMakespanNs(plan.Sched, cost, cfg.DRAM.Banks)
	s.estMu.Lock()
	if len(s.estCache) >= estCacheCap {
		s.estCache = map[string]estEntry{}
	}
	s.estCache[key] = estEntry{plan: plan, ns: ns}
	s.estMu.Unlock()
	return ns
}

// estEntry is one memoized admission price (see Server.estCache).
type estEntry struct {
	plan *graph.Plan
	ns   float64
}

// estCacheCap bounds the estimate memo; at the cap the whole memo is
// dropped and rebuilt (it repopulates in one submission per hot shape).
const estCacheCap = 1024

// hitMemo is one channel's memo of prepared programs for served
// plan-cache hits, keyed by plan-cache key. An entry is the program a
// job of that shape was last prepared as on this channel, plus the
// placement its objects had. A later job of the shape binds its objects
// first; when they land on the same placement, the entry's program is
// valid for them once its object pins are re-pointed, and the job
// skips lowering the program, resolving it and preparing it (and the
// IR verifier, whose every input the plan and placement fix).
//
// A shape's first plan-cache hit on the channel records only that it
// was seen (an entry with no program); the program is kept from its
// next full preparation on. A prepared program holds every
// instruction's bound μProgram views and dispatch tables, and shapes
// that hit the plan cache once and then go cold would otherwise fill
// the memo with them.
//
// Only the channel's scheduler worker runs, rebinds or records
// entries, so an entry's per-run scratch is never shared; mu guards
// the map against the plan cache's evict hook and Close.
type hitMemo struct {
	mu      sync.Mutex
	entries map[string]*hitEntry
	// objs collects the running job's allocations in order, reused
	// from job to job.
	objs []*Vector
}

// hitEntry is one memoized prepared program (see hitMemo).
type hitEntry struct {
	// plan is the cached plan the program was lowered from: a
	// profile-guided recompile swaps the cache's plan and so misses.
	plan *graph.Plan
	// widths and segs are the placement: each allocated object's width
	// and segments, in allocation order.
	widths []int
	segs   []segment
	// binds maps pp.binds[i] to the allocation index of its object.
	binds []int
	pp    *preparedProgram // nil when the shape was only seen
}

// hitMemoCap bounds one channel's memo, seen-only shapes included; at
// the cap the whole memo is dropped and rebuilt, two jobs per hot
// shape. Prepared programs are large: at 128 entries, shapes that hit
// the plan cache a few times and then went cold raised serve-adhoc's
// resident memory by 10–13%.
const hitMemoCap = 16

// lookup returns the entry for key when it was prepared from plan and
// objs, this job's allocations, land on the entry's placement.
func (m *hitMemo) lookup(key string, plan *graph.Plan, objs []*Vector) *hitEntry {
	m.mu.Lock()
	e := m.entries[key]
	m.mu.Unlock()
	if e == nil || e.pp == nil || e.plan != plan || len(e.widths) != len(objs) {
		return nil
	}
	segs := e.segs
	for i, v := range objs {
		if v.width != e.widths[i] || len(v.segs) > len(segs) || !slices.Equal(v.segs, segs[:len(v.segs)]) {
			return nil
		}
		segs = segs[len(v.segs):]
	}
	return e
}

// record memoizes pp, prepared from plan over objs, under key, once
// key has been seen (see hitMemo), and reports whether it kept pp. A
// program that pins an object outside objs is not recorded.
func (m *hitMemo) record(key string, plan *graph.Plan, objs []*Vector, pp *preparedProgram) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, seen := m.entries[key]
	e := &hitEntry{} // a first sighting only marks key seen
	if seen {
		e = &hitEntry{plan: plan, widths: make([]int, len(objs)), binds: make([]int, len(pp.binds)), pp: pp}
		for i, b := range pp.binds {
			if e.binds[i] = slices.Index(objs, b.v); e.binds[i] < 0 {
				return false
			}
		}
		for i, v := range objs {
			e.widths[i] = v.width
			e.segs = append(e.segs, v.segs...)
		}
	}
	if m.entries == nil || len(m.entries) >= hitMemoCap && !seen {
		m.entries = map[string]*hitEntry{}
	}
	m.entries[key] = e
	return seen
}

// drop forgets key's entry.
func (m *hitMemo) drop(key string) {
	m.mu.Lock()
	delete(m.entries, key)
	m.mu.Unlock()
}

// clear forgets every entry.
func (m *hitMemo) clear() {
	m.mu.Lock()
	m.entries = nil
	m.mu.Unlock()
}

// seenPool recycles checkServable's visited sets: a cleared map keeps
// its buckets, so a steady stream of jobs walks its DAGs without
// allocating.
var seenPool = sync.Pool{New: func() any { return map[*Expr]bool{} }}

// checkServable rejects expressions bound to pre-allocated storage:
// a server job must be runnable on any channel.
func checkServable(e *Expr, seen map[*Expr]bool) error {
	if e == nil {
		return errorf("server: nil expression")
	}
	if seen[e] {
		return nil
	}
	seen[e] = true
	switch e.kind {
	case exprLeaf, exprShardLeaf:
		return errorf("server: expression is bound to a pre-allocated vector; server jobs must use Input data leaves so they can run on any free channel")
	case exprOp:
		for _, a := range e.args {
			if err := checkServable(a, seen); err != nil {
				return err
			}
		}
	}
	return nil
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
// A plan-cache hit whose objects land on the placement the channel's
// memo entry for the shape was prepared with (see hitMemo) replays
// that entry: its "lower" span only binds storage, and its "prepare"
// span only re-points the program at the new objects and checks
// scratch headroom, with no "resolve" child. Any other job lowers and
// prepares in full, and a plan-cache hit then records what it
// prepared.
func (s *Server) runLazy(sys *System, worker int, cancel <-chan struct{}, env *compileEnv, exprs []*Expr, res *JobResult, tr *obs.Trace, at *ctrl.Attribution) error {
	cspan := tr.Begin("compile", 0)
	env.sys = sys
	plan, cst := planExprs(env, s.plans, s.profiles, tr, cspan)
	res.Compile = cst
	if cst.Recompiled {
		s.rec.Eventf("recompile", "profile-guided recompile after %d jobs (key %.24q…)", cst.ProfileJobs, env.key)
	}
	lspan := tr.Begin("lower", cspan)
	memo := &s.hits[worker]
	objs := memo.objs[:0]
	defer func() {
		clear(objs) // keep no freed vector reachable
		memo.objs = objs[:0]
	}()
	lw, err := bindPlan(env, plan, exprs,
		func(width int) (graphObj, error) {
			v, err := sys.allocVector(env.n, width, 0)
			if err != nil {
				return nil, err
			}
			objs = append(objs, v)
			return v, nil
		},
		func(id graph.NodeID) graphObj { return nil }, // no vector leaves: checkServable rejected them
		leafDataOf(env),
	)
	var hit *hitEntry
	if err == nil && cst.CacheHit {
		hit = memo.lookup(env.key, plan, objs)
	}
	if err == nil && hit == nil {
		if err = lw.lowerProgram(env, plan); err != nil {
			lw.release()
		}
	}
	tr.End(lspan)
	tr.End(cspan)
	if err != nil {
		return err
	}
	// Results are NOT published onto the expressions (publish): the
	// same expression template may be in flight on several channels at
	// once, and every vector below is released before the future
	// resolves anyway.
	defer lw.release()
	var pp *preparedProgram
	if hit != nil || len(lw.prog) > 0 {
		pspan := tr.Begin("prepare", 0)
		if hit != nil {
			pp = hit.pp
			pp.rebind(objs, hit.binds)
			if sys.checkPrepared(pp) != nil {
				// Rows claimed since the entry was recorded took its
				// scratch: take the full path, which reports them. The
				// entry stays for when the rows come back.
				hit, pp = nil, nil
				err = lw.lowerProgram(env, plan)
			}
		}
		if err == nil && hit == nil && len(lw.prog) > 0 {
			pp, err = sys.prepareProgramTraced(lw.prog, lw, tr, pspan)
		}
		tr.End(pspan)
		if err != nil {
			return err
		}
	}
	if pp != nil {
		espan := tr.BeginOn("execute", 0, worker)
		rspan := tr.BeginOn("run", espan, worker)
		st, opNs, err := sys.runPreparedAttr(pp, cancel, at)
		tr.End(rspan)
		tr.End(espan)
		if err == nil {
			s.profiles.Record(env.key, plan, opNs, modelCost(sys.cfg))
			res.Batch = st
		}
		// A program the memo does not keep ran once and is dropped:
		// recycle its storage. A replayed one belongs to the memo.
		if hit == nil && (err != nil || !cst.CacheHit || !memo.record(env.key, plan, objs, pp)) {
			pp.release()
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

// TenantServerStats is one tenant's serving counters.
type TenantServerStats struct {
	Submitted, Completed, Failed, Rejected, Canceled uint64
	Queued, Running                                  int
	// BusyNs is cumulative wall time this tenant's jobs spent running;
	// WaitNs cumulative time queued.
	BusyNs, WaitNs int64
	// ModeledNs is the cumulative modeled DRAM time (batch critical
	// path) of the tenant's completed jobs — the fed-back execution
	// stats, which price capacity in simulated-hardware time rather
	// than host wall time.
	ModeledNs float64
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
	// Queue/Run latency quantiles from the tenant's log-scale
	// histograms (sched.Ticket.QueueNs/RunNs observed per finished
	// job): honest per-tenant tail latency, bounded relative error 1/8.
	// Zero until the tenant's first job finishes.
	QueueP50Ns, QueueP99Ns, QueueP999Ns int64
	RunP50Ns, RunP99Ns, RunP999Ns       int64
}

// TierServerStats is one QoS tier's serving counters: the scheduler's
// per-tier dispatch/rejection/preemption counts, latency quantiles
// merged bucket-wise across the tier's member tenants, and the tier's
// achieved share of all modeled DRAM time the device has executed —
// the number to compare against the configured weight ratio.
type TierServerStats struct {
	Weight   float64
	Priority int
	// Tenants is how many tenants currently resolve to this tier.
	Tenants         int
	Queued, Running int
	// Dispatched counts jobs dispatched for this tier's tenants;
	// Rejected its admission rejections (all reasons); DeadlineRejects
	// the subset rejected with ErrDeadlineInfeasible; Preempts
	// dispatches the tier took past queued lower-priority work while
	// its SLO burn was active.
	Dispatched, Rejected, DeadlineRejects, Preempts uint64
	// ModeledNs is the cumulative modeled DRAM time charged to the
	// tier at dispatch; ShareOfDevice its fraction of the modeled time
	// all tiers consumed (0 when nothing has run).
	ModeledNs     float64
	ShareOfDevice float64
	// Merged queue/run latency quantiles over the tier's tenants.
	// When every tenant shares one tier these equal the
	// whole-population quantiles exactly (same observations, same
	// bucket arithmetic).
	QueueP50Ns, QueueP99Ns, QueueP999Ns int64
	RunP50Ns, RunP99Ns, RunP999Ns       int64
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
		Profile: s.profiles.Stats(),
		Tenants: make(map[string]TenantServerStats, len(ss.Tenants)),
		Tiers:   make(map[string]TierServerStats, len(ss.Tiers)),
		Rates:   s.dev.rates(s.nowNs(), ss.Completed, ss.Rejected),
	}
	var totalTierModeled float64
	for _, ts := range ss.Tiers {
		totalTierModeled += ts.ModeledNs
	}
	for name, ts := range ss.Tiers {
		t := TierServerStats{
			Weight: ts.Weight, Priority: ts.Priority, Tenants: ts.Tenants,
			Queued: ts.Queued, Running: ts.Running,
			Dispatched: ts.Dispatched, Rejected: ts.Rejected,
			DeadlineRejects: ts.DeadlineRejects, Preempts: ts.Preempts,
			ModeledNs:  ts.ModeledNs,
			QueueP50Ns: ts.QueueP50Ns, QueueP99Ns: ts.QueueP99Ns, QueueP999Ns: ts.QueueP999Ns,
			RunP50Ns: ts.RunP50Ns, RunP99Ns: ts.RunP99Ns, RunP999Ns: ts.RunP999Ns,
		}
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
		t := TenantServerStats{
			Submitted: ts.Submitted, Completed: ts.Completed, Failed: ts.Failed,
			Rejected: ts.Rejected, Canceled: ts.Canceled,
			Queued: ts.Queued, Running: ts.Running,
			BusyNs: ts.BusyNs, WaitNs: ts.WaitNs,
			ModeledNs:  ts.ModeledNs,
			QueueP50Ns: ts.QueueP50Ns, QueueP99Ns: ts.QueueP99Ns, QueueP999Ns: ts.QueueP999Ns,
			RunP50Ns: ts.RunP50Ns, RunP99Ns: ts.RunP99Ns, RunP999Ns: ts.RunP999Ns,
		}
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
