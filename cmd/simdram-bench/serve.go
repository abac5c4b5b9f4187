package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"simdram"
	"simdram/internal/batchgen"
)

// The span sets a steady-state serving job's trace may hold, sorted:
// the full path, and a memo replay, which binds nothing and so has no
// resolve span.
var (
	fullPathSpans = []string{"admit", "cache-lookup", "compile", "execute", "gather", "job", "lower", "prepare", "queue", "resolve", "run"}
	replaySpans   = []string{"admit", "cache-lookup", "compile", "execute", "gather", "job", "lower", "prepare", "queue", "run"}
)

// runServeDemo is the closed-loop throughput demo of the serving
// layer: N tenants, each keeping K jobs in flight, each job one of a
// small set of kernel request shapes (brightness, BitWeaving scan,
// TPC-H Q6) with a fresh random payload. Every result is verified
// against its pure-Go reference, so the demo is also a differential
// test of the cached-plan path under real concurrency.
//
// The demo runs with full trace sampling and a flight-recorder ring
// deep enough to retain every steady-state job, then audits the
// observability contract: every job has a span tree, every span tree
// holds exactly one of the two steady-state span sets (all-cache-hit
// jobs take either the full path or a memo replay), and each tree's
// top-level span durations sum to the job's reported latency split
// within tolerance. Latency percentiles come from the server's
// log-scale registry histograms — the same numbers an operator reads
// off the debug endpoint — not from a demo-side sort of collected
// samples.
// The demo also exercises the device-telemetry layer: every tenant's
// per-job batch stats are re-summed demo-side and cross-checked
// against the tenant's bill in Stats (ModeledNs, EnergyPJ; exported as
// tenant.dram_ns and tenant.energy_pj), channel bills must sum to
// tenant bills, and a deliberately slow "slowpoke" tenant trips a
// configured run_p99 SLO whose burn-rate event must land in the flight
// recorder. With -telemetry-addr the demo serves /metrics (Prometheus
// exposition) and /debug/simdram (JSON) while it runs, and
// -telemetry-hold keeps the endpoint up afterwards for scrapers.
func runServeDemo(tenants, jobs, inflight, channels, traceJobs int, telemetryAddr string, telemetryHold time.Duration, m metrics) error {
	if tenants < 1 || jobs < 1 || inflight < 1 || channels < 1 {
		return fmt.Errorf("-serve needs positive -tenants/-jobs/-inflight/-channels")
	}
	if inflight > jobs {
		inflight = jobs
	}
	// The SLO the slowpoke tenant will breach: its p99 run time must
	// stay under 2ms over a trailing 30s, and the induced jobs sleep
	// far longer than that.
	const slowpokeTargetNs = 2 * int64(time.Millisecond)
	cfg := simdram.DefaultServerConfig(channels)
	cfg.SLOs = []simdram.SLO{
		{Tenant: "slowpoke", Metric: "run_p99", TargetNs: slowpokeTargetNs, Window: 30 * time.Second},
	}
	// Request-sized lanes: serving jobs are small; a slimmer geometry
	// keeps the host-side transposition cost proportionate. At 256
	// lanes per subarray a 2048-element vector spans 8 segments over 4
	// banks, so every instruction's measured latency is 2× the static
	// per-subarray cost model — the divergence that drives the
	// profile-guided recompile path the demo exercises.
	cfg.Channel.DRAM.Cols = 256
	cfg.QueueDepth = tenants*inflight + channels
	// Trace every job, and retain every steady-state trace: the audit
	// below walks all of them.
	cfg.TraceSampling = 1.0
	cfg.TraceDepth = tenants*jobs + 16
	srv, err := simdram.NewServer(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	if telemetryAddr != "" {
		ln, err := net.Listen("tcp", telemetryAddr)
		if err != nil {
			return fmt.Errorf("-telemetry-addr: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		mux.Handle("/debug/simdram", srv.DebugHandler())
		hs := &http.Server{Handler: mux}
		go hs.Serve(ln)
		defer hs.Close()
		fmt.Printf("telemetry: serving /metrics and /debug/simdram on http://%s\n", ln.Addr())
	}

	const elems = 2048
	shapes := batchgen.ServeShapes(elems)

	// Warm the cache serially: round 1 is each shape's cold compile;
	// rounds 2..MinJobs reuse the plan while folding measured per-op
	// latencies into the shape's profile; round MinJobs+1 observes the
	// diverged profile and recompiles the plan with observed costs.
	// After this every job in the timed loop hits the profiled plan, so
	// both the steady-state hit rate and the recompile count are
	// deterministic.
	for round := 0; round < simdram.DefaultProfileMinJobs+1; round++ {
		for i, shape := range shapes {
			req := shape.New(rand.New(rand.NewSource(int64(round*100 + i))))
			if err := req.RunVerify(context.Background(), srv, "warmup"); err != nil {
				return fmt.Errorf("warmup shape %s: %w", shape.Name, err)
			}
		}
	}
	if got, want := srv.Stats().Profile.Recompiles, uint64(len(shapes)); got != want {
		return fmt.Errorf("warmup did not converge: %d profile-guided recompiles, want %d (one per shape)", got, want)
	}
	// Drop warmup traces (cold compiles and recompiles carry an extra
	// "schedule" span): the measurement window retains only
	// steady-state span trees, whose structure is deterministic.
	srv.ResetTraces()

	// jobLat records one steady job's reported latency split, keyed by
	// its trace for the span-sum audit.
	type jobLat struct {
		traceID        uint64
		queueNs, runNs int64
	}
	var (
		mu       sync.Mutex
		lats     []jobLat
		hits     int
		profiled int
		// Demo-side re-aggregation of each tenant's batch stats, for the
		// cross-check against the server's attribution bills.
		demoEnergy = map[string]float64{}
		demoDRAM   = map[string]float64{}
	)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, tenants)
	for t := 0; t < tenants; t++ {
		t := t
		tenant := fmt.Sprintf("tenant-%d", t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// K closed loops per tenant: each submits, waits, verifies,
			// repeats — K jobs in flight per tenant at all times.
			var tw sync.WaitGroup
			terrs := make([]error, inflight)
			for k := 0; k < inflight; k++ {
				k := k
				share := jobs / inflight
				if k < jobs%inflight {
					share++
				}
				tw.Add(1)
				go func() {
					defer tw.Done()
					rng := rand.New(rand.NewSource(int64(t*1000 + k)))
					for i := 0; i < share; i++ {
						shape := shapes[(i+k)%len(shapes)]
						req := shape.New(rng)
						res, err := req.Submit(context.Background(), srv, tenant)
						if err == nil {
							err = req.Verify(res)
						}
						if err != nil {
							terrs[k] = fmt.Errorf("%s job %d (%s): %w", tenant, i, shape.Name, err)
							return
						}
						mu.Lock()
						lats = append(lats, jobLat{traceID: res.TraceID, queueNs: res.QueueNs, runNs: res.RunNs})
						demoEnergy[tenant] += res.Batch.EnergyPJ
						demoDRAM[tenant] += res.Batch.CriticalPathNs
						if res.Compile.CacheHit {
							hits++
						}
						if res.Compile.ProfiledPlan {
							profiled++
						}
						mu.Unlock()
					}
				}()
			}
			tw.Wait()
			for _, err := range terrs {
				if err != nil {
					errs[t] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	st := srv.Stats()
	total := len(lats)
	jobsPerSec := float64(total) / wall.Seconds()
	hitRate := float64(hits) / float64(total)

	// Latency quantiles from the registry histograms (sched.* series:
	// per-job queue wait, run time, and end-to-end). These include the
	// serial warmup jobs — the same shapes on the same channels — so
	// they are the honest whole-run distributions an operator would see.
	hist := map[string]metricPoint{}
	for _, p := range srv.Metrics() {
		hist[p.Name] = metricPoint{p50: p.P50, p99: p.P99, p999: p.P999, count: p.Value}
	}
	jobH, queueH := hist["sched.job_ns"], hist["sched.queue_ns"]
	if jobH.count == 0 || queueH.count == 0 {
		return fmt.Errorf("serving demo: sched.job_ns/sched.queue_ns histograms are empty")
	}

	// Observability audit 1: the recorder retained one span tree per
	// steady-state job, and every tree holds exactly the full-path or
	// the memo-replay span set (cold compiles and recompiles, which add
	// "schedule", all happened before ResetTraces). At least one job
	// must have replayed its channel's memoized program.
	traces := srv.Traces()
	if len(traces) != total {
		return fmt.Errorf("serving demo: flight recorder retained %d traces for %d steady-state jobs", len(traces), total)
	}
	byID := make(map[uint64]simdram.JobTrace, len(traces))
	totalSpans, replays := 0, 0
	for _, jt := range traces {
		byID[jt.ID] = jt
		totalSpans += len(jt.Spans)
		names := make([]string, len(jt.Spans))
		for i, sp := range jt.Spans {
			names[i] = sp.Name
		}
		sort.Strings(names)
		switch {
		case slices.Equal(names, replaySpans):
			replays++
		case !slices.Equal(names, fullPathSpans):
			return fmt.Errorf("serving demo: trace %d holds spans %v, want the full path %v or a memo replay %v",
				jt.ID, names, fullPathSpans, replaySpans)
		}
	}
	if replays == 0 {
		return fmt.Errorf("serving demo: none of %d steady-state jobs replayed a memoized program", total)
	}
	spansPerJob := float64(totalSpans) / float64(len(traces))

	// Observability audit 2: for every job, the top-level spans that
	// start at or after the queue span must sum to the job's reported
	// latency split (QueueNs + RunNs) within tolerance — the trace and
	// the ticket measure the same pipeline on different clocks. The
	// admit and compile spans precede the ticket, so they are not part
	// of the split.
	for _, jl := range lats {
		jt, ok := byID[jl.traceID]
		if !ok {
			return fmt.Errorf("serving demo: job's trace %d not in the recorder", jl.traceID)
		}
		queued := int64(math.MaxInt64)
		for _, sp := range jt.Spans {
			if sp.Name == "queue" {
				queued = sp.StartNs
			}
		}
		var sum int64
		for _, sp := range jt.Spans {
			if sp.Parent == 0 && sp.StartNs >= queued {
				sum += sp.DurNs()
			}
		}
		totalNs := jl.queueNs + jl.runNs
		slack := totalNs / 4
		if slack < 500_000 {
			slack = 500_000 // host-scheduling noise floor on short jobs
		}
		if diff := sum - totalNs; diff > slack || diff < -slack {
			return fmt.Errorf("serving demo: trace %d span sum %dns vs job latency %dns (slack %dns)",
				jl.traceID, sum, totalNs, slack)
		}
	}
	if queueH.p99 <= 0 {
		return fmt.Errorf("serving demo: p99 queue wait is zero — queue histogram not populated")
	}

	// SLO audit: the slowpoke tenant submits a few raw jobs that sleep
	// well past the configured 2ms p99 target, which must trip the SLO
	// and land an edge-triggered burn-rate event in the flight recorder.
	// (Induced after the trace audits: raw jobs have their own span
	// structure.)
	for i := 0; i < 3; i++ {
		fut, err := srv.SubmitFn(context.Background(), simdram.JobSpec{Tenant: "slowpoke"}, func(sys *simdram.System, cancel <-chan struct{}) error {
			time.Sleep(4 * time.Duration(slowpokeTargetNs))
			return nil
		})
		if err != nil {
			return fmt.Errorf("serving demo: slowpoke submit: %w", err)
		}
		if _, err := fut.Wait(); err != nil {
			return fmt.Errorf("serving demo: slowpoke job: %w", err)
		}
	}
	var slowpoke simdram.SLOStatus
	for _, st := range srv.SLOStatus() {
		if st.SLO.Tenant == "slowpoke" {
			slowpoke = st
		}
	}
	if !slowpoke.Breaching || slowpoke.BurnRate <= 1 {
		return fmt.Errorf("serving demo: slowpoke SLO did not trip: %+v", slowpoke)
	}
	sloEvents := 0
	for _, ev := range srv.Events() {
		if ev.Kind == "slo" {
			sloEvents++
		}
	}
	if sloEvents == 0 {
		return fmt.Errorf("serving demo: SLO breach emitted no burn-rate event into the flight recorder")
	}

	// Attribution audit: each tenant's bill must agree with the demo's
	// own re-aggregation of its jobs' batch stats, and the channel
	// bills (per-bank attribution) must sum to the tenant bills.
	billed := srv.Stats()
	relDiff := func(a, b float64) float64 {
		if a == b {
			return 0
		}
		return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
	}
	var steadyEnergy float64
	for tenant, want := range demoEnergy {
		bill, ok := billed.Tenants[tenant]
		if !ok {
			return fmt.Errorf("serving demo: tenant %s has no bill", tenant)
		}
		if relDiff(bill.EnergyPJ, want) > 1e-9 {
			return fmt.Errorf("serving demo: tenant %s billed %.3f pJ, its batches reported %.3f pJ", tenant, bill.EnergyPJ, want)
		}
		if relDiff(bill.ModeledNs, demoDRAM[tenant]) > 1e-9 {
			return fmt.Errorf("serving demo: tenant %s billed %.3f DRAM-ns, its batches reported %.3f", tenant, bill.ModeledNs, demoDRAM[tenant])
		}
		steadyEnergy += want
	}
	var chanEnergy, chanBusy, billedTotal, tenantEnergy float64
	for _, ch := range billed.Device {
		chanEnergy += ch.EnergyPJ
		chanBusy += ch.BusyNs
	}
	for _, bill := range billed.Tenants {
		tenantEnergy += bill.EnergyPJ
		billedTotal += bill.ModeledNs
	}
	if relDiff(chanEnergy, tenantEnergy) > 1e-9 {
		return fmt.Errorf("serving demo: channel energy bills sum to %.3f pJ, tenant bills to %.3f pJ", chanEnergy, tenantEnergy)
	}
	if relDiff(chanBusy, billedTotal) > 1e-9 {
		return fmt.Errorf("serving demo: channel busy time sums to %.3f ns, tenant bills to %.3f ns", chanBusy, billedTotal)
	}

	fmt.Printf("serving demo: %d tenants × %d jobs (%d in flight each) over %d channels, %d shapes × %d elements\n",
		tenants, jobs, inflight, channels, len(shapes), elems)
	fmt.Printf("  throughput:         %8.0f jobs/s  (%d jobs in %v, all verified against references)\n",
		jobsPerSec, total, wall.Round(time.Millisecond))
	fmt.Printf("  latency (histogram): p50 %8.2f ms, p99 %8.2f ms, p999 %8.2f ms; queue p99 %.2f ms\n",
		float64(jobH.p50)/1e6, float64(jobH.p99)/1e6, float64(jobH.p999)/1e6, float64(queueH.p99)/1e6)
	fmt.Printf("  tracing:            %d span trees retained (%.0f spans/job, every steady-state job audited against its latency split)\n",
		len(traces), spansPerJob)
	fmt.Printf("  plan cache:         %.1f%% hit rate in steady state (%d hits / %d jobs; %d plans cached, %s eviction: %d evicted, %d hot)\n",
		100*hitRate, hits, total, st.Cache.Size, st.Cache.Policy, st.Cache.Evicted, st.Cache.EvictedHot)
	fmt.Printf("  profile feedback:   %d shapes recompiled from measured profiles (%d jobs folded in); %d/%d steady-state jobs ran profiled plans\n",
		st.Profile.Recompiles, st.Profile.Jobs, profiled, total)
	fmt.Printf("  admission:          %d submitted, %d completed, %d rejected, %d canceled\n",
		st.Submitted, st.Completed, st.Rejected, st.Canceled)
	fmt.Printf("  device telemetry:   ")
	for i, ch := range billed.Device {
		if i > 0 {
			fmt.Printf(", ")
		}
		fmt.Printf("ch%d %.1fµs busy / %.2fnJ / %d cmds (util %.2f)",
			ch.Channel, ch.BusyNs/1e3, ch.EnergyPJ/1e3, ch.Commands, ch.Utilization)
	}
	fmt.Println()
	// Per-tenant utilization from the bills: each tenant's share of all
	// billed DRAM time.
	fmt.Printf("  per-tenant p99 run: ")
	names := make([]string, 0, len(st.Tenants))
	for name := range st.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	shown := 0
	for _, name := range names {
		if name == "warmup" || name == "slowpoke" {
			continue
		}
		if shown > 0 {
			fmt.Printf(", ")
		}
		ts := st.Tenants[name]
		util := 0.0
		if billedTotal > 0 {
			util = billed.Tenants[name].ModeledNs / billedTotal
		}
		fmt.Printf("%s %.2fms (util %.2f)", name, float64(ts.RunP99Ns)/1e6, util)
		shown++
	}
	fmt.Println()
	fmt.Printf("  slo:                slowpoke run_p99 %.2fms > %.2fms target, burn %.0fx over %d samples (%d event)\n",
		float64(slowpoke.CurrentNs)/1e6, float64(slowpokeTargetNs)/1e6, slowpoke.BurnRate, slowpoke.Samples, sloEvents)
	printTraces(srv, traceJobs)

	m["serve.jobs"] = float64(total)
	m["serve.jobs_per_sec"] = jobsPerSec
	m["serve.p50_ms"] = float64(jobH.p50) / 1e6
	m["serve.p99_ms"] = float64(jobH.p99) / 1e6
	m["serve.p999_ms"] = float64(jobH.p999) / 1e6
	m["serve.p99_queue_ns"] = float64(queueH.p99)
	m["serve.trace_ring_depth"] = float64(len(traces))
	m["serve.spans_per_job"] = spansPerJob
	m["serve.cache_hit_rate"] = hitRate
	m["serve.plans_cached"] = float64(st.Cache.Size)
	m["serve.evicted"] = float64(st.Cache.Evicted)
	m["serve.evicted_hot"] = float64(st.Cache.EvictedHot)
	m["serve.recompiles"] = float64(st.Profile.Recompiles)
	m["serve.profiled_jobs"] = float64(profiled)
	// Deterministic: per-command energy is data-independent, so the
	// steady-state shape mix fixes the attributed energy per job.
	m["serve.energy_pj_per_job"] = steadyEnergy / float64(total)
	m["serve.slo_burn_events"] = float64(sloEvents)
	m["verify.plans_checked"] = float64(srv.VerifiedPlans())
	// Informational only: the gated host.* keys come from the -graph
	// demo's JSON.
	if err := reportHostPerf(m, "serve.host_"); err != nil {
		return err
	}

	if hitRate < 0.90 {
		return fmt.Errorf("serving demo regressed: plan-cache hit rate %.1f%% on repeated request shapes, want >= 90%%", 100*hitRate)
	}
	if profiled != total {
		return fmt.Errorf("serving demo regressed: %d of %d steady-state jobs ran profiled plans, want all (profile-guided recompile converged during warmup)", profiled, total)
	}
	if telemetryAddr != "" && telemetryHold > 0 {
		fmt.Printf("holding telemetry endpoint for %s (ctrl-c to stop early)\n", telemetryHold)
		time.Sleep(telemetryHold)
	}
	return nil
}

// metricPoint is the slice of a registry histogram the demo reads.
type metricPoint struct {
	p50, p99, p999 int64
	count          float64
}

// printTraces renders up to n of the flight recorder's span trees as
// indented trees with durations — the -trace-jobs output.
func printTraces(srv *simdram.Server, n int) {
	if n <= 0 {
		return
	}
	traces := srv.Traces()
	if n > len(traces) {
		n = len(traces)
	}
	fmt.Printf("  span trees (last %d of %d traced jobs):\n", n, len(traces))
	for _, jt := range traces[len(traces)-n:] {
		printTrace(jt)
	}
}

func printTrace(jt simdram.JobTrace) {
	// Children in creation order, which is also execution order.
	children := make([][]int, len(jt.Spans))
	for i, sp := range jt.Spans {
		if i == 0 {
			continue
		}
		children[sp.Parent] = append(children[sp.Parent], i)
	}
	var walk func(i, depth int)
	walk = func(i, depth int) {
		sp := jt.Spans[i]
		ch := ""
		if sp.Channel >= 0 {
			ch = fmt.Sprintf(" [channel %d]", sp.Channel)
		}
		fmt.Printf("    %*s%-12s %10.1fµs%s\n", 2*depth, "", sp.Name, float64(sp.DurNs())/1e3, ch)
		for _, c := range children[i] {
			walk(c, depth+1)
		}
	}
	status := "ok"
	if jt.Err != "" {
		status = "error: " + jt.Err
	}
	fmt.Printf("    trace %d (%s)\n", jt.ID, status)
	walk(0, 1)
}
