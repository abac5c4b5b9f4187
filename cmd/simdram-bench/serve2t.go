package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simdram"
	"simdram/internal/batchgen"
)

// runServeTiersDemo is the two-tier QoS overload demo: two gold
// tenants and two bronze tenants hammer a small channel pool with
// closed loops sized to keep both tiers continuously backlogged, under
// a 4:1 gold:bronze weight ratio. It demonstrates — and gates — the
// scheduler's three QoS promises:
//
//  1. Weighted shares: over the measurement window the modeled DRAM-ns
//     dispatched per tier must match the configured weight ratio
//     within 10%.
//  2. Tier isolation under SLOs: gold's run_p99 objective stays green
//     (zero burn events) while bronze's deliberately tight queue_p99
//     objective breaches — overload lands on the cheap tier.
//  3. Deadline admission: every submission carrying an unmeetable
//     deadline is rejected at admission with ErrDeadlineInfeasible —
//     typed, counted per tier, and never queued.
//
// Every job's results are verified against the kernel references, so
// the demo is also a differential test of the JobSpec submit path.
func runServeTiersDemo(inflight, channels int, window time.Duration, m metrics) error {
	if inflight < 1 || channels < 1 {
		return fmt.Errorf("-serve -tiers needs positive -inflight/-channels")
	}
	// The share gate assumes every tenant stays continuously backlogged:
	// a tenant whose queue momentarily drains forfeits its weighted-fair
	// position to work conservation, which reads as a share regression
	// that isn't one. A tenant's slot frees only once the goroutine
	// waiting on its finished job runs, and a backlogged channel worker
	// never blocks, so with no more Ps than channels the waiters and
	// feeders run only when the Go scheduler preempts a worker. On a
	// busy host that takes long enough for gold, which finishes four
	// jobs to bronze's one, to fill its slots with finished jobs no
	// waiter has seen, drain its queue, and cede the channels to bronze.
	// Spare Ps let them run whenever the host gives the process a
	// thread, and queues this deep ride out the stalls left.
	if inflight < 256 {
		inflight = 256
	}
	if runtime.GOMAXPROCS(0) < 2*channels {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2 * channels))
	}
	if window < 200*time.Millisecond {
		window = 200 * time.Millisecond
	}
	const (
		goldWeight   = 4.0
		bronzeWeight = 1.0
		// Gold's latency objective is generous (it must stay green
		// under overload thanks to its weight); bronze's queue
		// objective is deliberately unmeetable at 1/5 of capacity.
		goldRunP99TargetNs     = 250 * int64(time.Millisecond)
		bronzeQueueP99TargetNs = 2 * int64(time.Millisecond)
		deadlineProbes         = 10
	)
	goldTenants := []string{"gold-0", "gold-1"}
	bronzeTenants := []string{"bronze-0", "bronze-1"}

	cfg := simdram.DefaultServerConfig(channels)
	cfg.Channel.DRAM.Cols = 256
	cfg.Tiers = []simdram.Tier{
		{Name: "gold", Weight: goldWeight, Priority: 1},
		{Name: "bronze", Weight: bronzeWeight, Priority: 0},
	}
	for _, tenant := range goldTenants {
		cfg.SLOs = append(cfg.SLOs, simdram.SLO{
			Tenant: tenant, Metric: "run_p99", TargetNs: goldRunP99TargetNs, Window: 30 * time.Second,
		})
	}
	for _, tenant := range bronzeTenants {
		cfg.SLOs = append(cfg.SLOs, simdram.SLO{
			Tenant: tenant, Metric: "queue_p99", TargetNs: bronzeQueueP99TargetNs, Window: 30 * time.Second,
		})
	}
	loops := (len(goldTenants) + len(bronzeTenants)) * inflight
	cfg.QueueDepth = loops + channels + deadlineProbes
	srv, err := simdram.NewServer(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	const elems = 2048
	shapes := batchgen.ServeShapes(elems)

	// Warm every shape through cold compile, profiling, and the
	// profile-guided recompile, so steady-state admission estimates
	// come from the exact cached plans that will run.
	for round := 0; round < simdram.DefaultProfileMinJobs+1; round++ {
		for i, shape := range shapes {
			req := shape.New(rand.New(rand.NewSource(int64(round*100 + i))))
			if err := req.RunVerify(context.Background(), srv, "warmup"); err != nil {
				return fmt.Errorf("tiers warmup shape %s: %w", shape.Name, err)
			}
		}
	}

	// Each tenant runs one feeder that keeps `inflight` jobs outstanding
	// from a pre-generated request pool, with verification handed off to
	// background waiters. Keeping request generation and verification
	// off the resubmission path is what keeps every tenant continuously
	// backlogged — the whole point of the overload scenario — even when
	// the host CPUs are saturated by the channel simulations.
	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		loopErrs []error
		done     = map[string]int{}
	)
	fail := func(err error) {
		mu.Lock()
		loopErrs = append(loopErrs, err)
		mu.Unlock()
	}
	const poolPerTenant = 8
	runFeeder := func(tenant, tier string, seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		pool := make([]*batchgen.ServeRequest, poolPerTenant)
		poolShape := make([]string, poolPerTenant)
		for i := range pool {
			shape := shapes[i%len(shapes)]
			pool[i] = shape.New(rng)
			poolShape[i] = shape.Name
		}
		sem := make(chan struct{}, inflight)
		for i := 0; !stop.Load(); i++ {
			sem <- struct{}{}
			req, shapeName := pool[i%poolPerTenant], poolShape[i%poolPerTenant]
			fut, err := srv.SubmitJob(context.Background(), simdram.JobSpec{Tenant: tenant, Tier: tier}, req.Exprs()...)
			if err != nil {
				fail(fmt.Errorf("%s (%s): submit: %w", tenant, shapeName, err))
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				res, err := fut.Wait()
				if err == nil {
					err = req.Verify(res)
				}
				if err != nil {
					fail(fmt.Errorf("%s (%s): %w", tenant, shapeName, err))
					stop.Store(true)
					return
				}
				mu.Lock()
				done[tenant]++
				mu.Unlock()
			}()
		}
	}
	start := time.Now()
	for i, tenant := range goldTenants {
		wg.Add(1)
		go runFeeder(tenant, "gold", int64(i+1))
	}
	for i, tenant := range bronzeTenants {
		wg.Add(1)
		go runFeeder(tenant, "bronze", int64(100+i))
	}

	// Ramp, then measure the dispatched modeled-ns per tier across the
	// window — the achieved weighted share, straight off the
	// scheduler's tier charge counters.
	time.Sleep(window / 4)
	before := srv.Stats().Tiers
	time.Sleep(window)
	after := srv.Stats().Tiers

	// Deadline probes while the backlog is still live: a deadline in
	// the next microsecond is infeasible behind a multi-millisecond
	// estimated wait, so every probe must be rejected at admission.
	rejects, admitted := 0, 0
	var lastAdm *simdram.AdmissionError
	probeRng := rand.New(rand.NewSource(99))
	for i := 0; i < deadlineProbes; i++ {
		req := shapes[i%len(shapes)].New(probeRng)
		_, err := req.SubmitSpec(context.Background(), srv, simdram.JobSpec{
			Tenant: "deadline-probe", Tier: "gold", Deadline: time.Now().Add(time.Microsecond),
		})
		switch {
		case errors.Is(err, simdram.ErrDeadlineInfeasible):
			rejects++
			errors.As(err, &lastAdm)
		case err == nil:
			admitted++
		default:
			return fmt.Errorf("tiers demo: deadline probe %d failed unexpectedly: %w", i, err)
		}
	}

	slos := srv.SLOStatus()
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start)
	for _, err := range loopErrs {
		return err
	}

	goldNs := after["gold"].ModeledNs - before["gold"].ModeledNs
	bronzeNs := after["bronze"].ModeledNs - before["bronze"].ModeledNs
	if bronzeNs <= 0 {
		return fmt.Errorf("tiers demo: bronze dispatched no modeled work in the window — starved outright")
	}
	shareRatio := goldNs / bronzeNs
	weightRatio := goldWeight / bronzeWeight

	// SLO audit: gold green, bronze burning.
	goldBreaching, bronzeBreaching := 0, 0
	var bronzeBurn float64
	for _, st := range slos {
		switch {
		case strings.HasPrefix(st.SLO.Tenant, "gold-"):
			if st.Breaching {
				goldBreaching++
			}
		case strings.HasPrefix(st.SLO.Tenant, "bronze-"):
			if st.Breaching {
				bronzeBreaching++
				bronzeBurn = math.Max(bronzeBurn, st.BurnRate)
			}
		}
	}
	goldBurnEvents, bronzeBurnEvents := 0, 0
	for _, ev := range srv.Events() {
		if ev.Kind != "slo" {
			continue
		}
		if strings.Contains(ev.Detail, "gold-") {
			goldBurnEvents++
		}
		if strings.Contains(ev.Detail, "bronze-") {
			bronzeBurnEvents++
		}
	}

	st := srv.Stats()
	gold, bronze := st.Tiers["gold"], st.Tiers["bronze"]
	total := 0
	names := make([]string, 0, len(done))
	for tenant, n := range done {
		total += n
		names = append(names, tenant)
	}
	sort.Strings(names)

	fmt.Printf("two-tier QoS demo: gold:bronze weights %.0f:%.0f, %d tenants × %d in flight over %d channels, %v window\n",
		goldWeight, bronzeWeight, len(goldTenants)+len(bronzeTenants), inflight, channels, window)
	fmt.Printf("  weighted share:     gold %.2fms vs bronze %.2fms modeled DRAM time dispatched → ratio %.2f (want %.0f ± 10%%)\n",
		goldNs/1e6, bronzeNs/1e6, shareRatio, weightRatio)
	fmt.Printf("  tier latency:       gold queue p99 %.2fms run p99 %.2fms | bronze queue p99 %.2fms run p99 %.2fms\n",
		float64(gold.QueueP99Ns)/1e6, float64(gold.RunP99Ns)/1e6,
		float64(bronze.QueueP99Ns)/1e6, float64(bronze.RunP99Ns)/1e6)
	fmt.Printf("  slo:                gold run_p99 < %.0fms green (%d burn events); bronze queue_p99 > %.0fms breaching ×%d (burn %.0fx, %d events)\n",
		float64(goldRunP99TargetNs)/1e6, goldBurnEvents,
		float64(bronzeQueueP99TargetNs)/1e6, bronzeBreaching, bronzeBurn, bronzeBurnEvents)
	fmt.Printf("  deadline admission: %d/%d infeasible submissions rejected typed at admission (tier gold deadline-rejects %d)\n",
		rejects, deadlineProbes, gold.DeadlineRejects)
	fmt.Printf("  throughput:         %d verified jobs in %v (", total, wall.Round(time.Millisecond))
	for i, tenant := range names {
		if i > 0 {
			fmt.Printf(", ")
		}
		fmt.Printf("%s %d", tenant, done[tenant])
	}
	fmt.Println(")")

	m["serve2t.jobs"] = float64(total)
	m["serve2t.jobs_per_sec"] = float64(total) / wall.Seconds()
	m["serve2t.share_ratio"] = shareRatio
	m["serve2t.gold_p99_ns"] = float64(gold.RunP99Ns)
	m["serve2t.gold_queue_p99_ns"] = float64(gold.QueueP99Ns)
	m["serve2t.bronze_queue_p99_ns"] = float64(bronze.QueueP99Ns)
	m["serve2t.deadline_rejects"] = float64(rejects)
	m["serve2t.gold_burn_events"] = float64(goldBurnEvents)
	m["serve2t.bronze_burn_events"] = float64(bronzeBurnEvents)
	m["serve2t.preempts"] = float64(gold.Preempts)
	// The raw sched.tier_* registry series land in the JSON too, so CI
	// can grep the per-tier observability surface end to end.
	for _, p := range srv.Metrics() {
		if strings.HasPrefix(p.Name, "sched.tier_") {
			m[p.Name] = p.Value
		}
	}

	if math.Abs(shareRatio/weightRatio-1) > 0.10 {
		return fmt.Errorf("tiers demo regressed: modeled-ns share ratio %.2f deviates >10%% from the %.0f:1 weight ratio", shareRatio, weightRatio)
	}
	if goldBreaching > 0 || goldBurnEvents > 0 {
		return fmt.Errorf("tiers demo regressed: gold tier breached its SLO under overload (%d breaching, %d burn events)", goldBreaching, goldBurnEvents)
	}
	if bronzeBreaching == 0 || bronzeBurnEvents == 0 {
		return fmt.Errorf("tiers demo regressed: bronze tier never breached its deliberately tight queue SLO (overload not reaching the cheap tier)")
	}
	if admitted > 0 || rejects != deadlineProbes {
		return fmt.Errorf("tiers demo regressed: %d/%d infeasible-deadline submissions rejected (%d admitted) — deadline admission must reject all of them", rejects, deadlineProbes, admitted)
	}
	if lastAdm == nil || lastAdm.Reason != "deadline-infeasible" || lastAdm.EstimatedWaitNs <= 0 {
		return fmt.Errorf("tiers demo regressed: deadline rejection missing its typed admission estimate: %+v", lastAdm)
	}
	if gold.DeadlineRejects != uint64(deadlineProbes) {
		return fmt.Errorf("tiers demo regressed: tier deadline-reject counter %d, want %d", gold.DeadlineRejects, deadlineProbes)
	}
	return nil
}
