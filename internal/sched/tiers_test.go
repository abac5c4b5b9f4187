package sched

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestResolveTier(t *testing.T) {
	tiers := []Tier{
		{Name: "gold", Weight: 4, Priority: 1, MaxQueueNs: 100},
		{Name: "default", Weight: 2},
	}
	if got := ResolveTier(tiers, "gold"); got.Weight != 4 || got.Priority != 1 {
		t.Fatalf("exact match: %+v", got)
	}
	if got := ResolveTier(tiers, ""); got.Name != "default" || got.Weight != 2 {
		t.Fatalf("empty name must use the configured default: %+v", got)
	}
	if got := ResolveTier(tiers, "unknown"); got.Name != "default" || got.Weight != 2 {
		t.Fatalf("undeclared name must use the configured default: %+v", got)
	}
	if got := ResolveTier(nil, "anything"); got.Name != DefaultTierName || got.Weight != 1 {
		t.Fatalf("no config must yield the implicit default: %+v", got)
	}
	if got := ResolveTier([]Tier{{Name: "zero"}}, "zero"); got.Weight != 1 {
		t.Fatalf("non-positive weight must normalize to 1: %+v", got)
	}
}

// TestTierOf checks the scheduler's tenant→tier map: a declared tier
// names itself, an undeclared one resolves to the default, a tenant
// the scheduler never saw reads as the default, and a tenant's last
// submission wins even when admission rejects it.
func TestTierOf(t *testing.T) {
	s, gate, _ := blockedScheduler(t, Config{QueueDepth: 1, Tiers: []Tier{{Name: "gold", Weight: 4}, {Name: "bronze"}}})
	defer s.Close()
	defer close(gate)
	submit := func(tenant, tier string) error {
		_, err := s.SubmitRequest(nil, Request{Tenant: tenant, Tier: tier}, func(int, <-chan struct{}) error { return nil })
		return err
	}
	if err := submit("a", "gold"); err != nil {
		t.Fatal(err)
	}
	if got := s.TierOf("a"); got != "gold" {
		t.Errorf("declared tier: TierOf = %q, want gold", got)
	}
	// The queue is full now, so the next submissions are rejected.
	if err := submit("b", "platinum"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if got := s.TierOf("b"); got != DefaultTierName {
		t.Errorf("undeclared tier: TierOf = %q, want %q", got, DefaultTierName)
	}
	if got := s.TierOf("nobody"); got != DefaultTierName {
		t.Errorf("unknown tenant: TierOf = %q, want %q", got, DefaultTierName)
	}
	if err := submit("a", "bronze"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if got := s.TierOf("a"); got != "bronze" {
		t.Errorf("after a later submission: TierOf = %q, want bronze", got)
	}
}

// TestWeightedSharesConverge queues a sustained two-tier backlog and
// checks the dispatch shares track the 4:1 weight ratio within 10%
// while both tiers still have queued work.
func TestWeightedSharesConverge(t *testing.T) {
	cfg := Config{
		QueueDepth: 256,
		Tiers: []Tier{
			{Name: "gold", Weight: 4},
			{Name: "bronze", Weight: 1},
		},
	}
	s, gate, blocker := blockedScheduler(t, cfg)
	defer s.Close()

	var mu sync.Mutex
	var order []string
	task := func(tier string) Task {
		return func(worker int, cancel <-chan struct{}) error {
			mu.Lock()
			order = append(order, tier)
			mu.Unlock()
			return nil
		}
	}
	const perTier = 100
	var tickets []*Ticket
	for i := 0; i < perTier; i++ {
		for _, tier := range []string{"gold", "bronze"} {
			tk, err := s.SubmitRequest(nil, Request{
				Tenant: "tenant-" + tier, Tier: tier, ModeledNs: 1000,
			}, task(tier))
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
	}
	close(gate)
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Gold exhausts its 100-job backlog after ~125 dispatches; measure
	// the share over the first 100, where both tiers are still backed
	// up (sustained overload).
	gold := 0
	for _, tier := range order[:perTier] {
		if tier == "gold" {
			gold++
		}
	}
	bronze := perTier - gold
	if bronze == 0 {
		t.Fatal("bronze starved outright")
	}
	ratio := float64(gold) / float64(bronze)
	if ratio < 4*0.9 || ratio > 4*1.1 {
		t.Fatalf("gold:bronze dispatch ratio %.2f, want within 10%% of 4.0 (gold=%d bronze=%d)", ratio, gold, bronze)
	}
	st := s.Stats()
	if st.Tiers["gold"].Dispatched != perTier || st.Tiers["bronze"].Dispatched != perTier {
		t.Fatalf("tier dispatch counters: %+v", st.Tiers)
	}
	if st.Tiers["gold"].ModeledNs != perTier*1000 {
		t.Fatalf("gold tier modeled-ns charge = %.0f, want %d", st.Tiers["gold"].ModeledNs, perTier*1000)
	}
}

// TestBoostPreemptsQueuedWork checks that a boosted higher-priority
// tier's queued job jumps ahead of already-queued lower-priority work,
// and that the preemption is counted.
func TestBoostPreemptsQueuedWork(t *testing.T) {
	cfg := Config{
		QueueDepth: 16,
		Tiers: []Tier{
			{Name: "gold", Weight: 1, Priority: 1},
			{Name: "bronze", Weight: 1, Priority: 0},
		},
	}
	s, gate, blocker := blockedScheduler(t, cfg)
	defer s.Close()

	var mu sync.Mutex
	var order []string
	task := func(name string) Task {
		return func(worker int, cancel <-chan struct{}) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil
		}
	}
	var tickets []*Ticket
	for _, sub := range []struct{ tier, name string }{
		{"bronze", "b1"}, {"bronze", "b2"}, {"gold", "g1"},
	} {
		tk, err := s.SubmitRequest(nil, Request{Tenant: sub.name, Tier: sub.tier}, task(sub.name))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	s.SetBoost(map[string]bool{"gold": true})
	close(gate)
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if order[0] != "g1" {
		t.Fatalf("boosted gold must dispatch first, got order %v", order)
	}
	if got := s.Stats().Tiers["gold"].Preempts; got == 0 {
		t.Fatal("gold's jump past queued bronze work must count as a preemption")
	}
	// With the boost cleared, fairness is purely weighted again.
	s.SetBoost(nil)
}

// TestDeadlineAdmission wedges the worker behind a large modeled
// backlog and checks that an infeasible deadline is rejected at
// admission — typed, never queued — while a feasible one is admitted.
func TestDeadlineAdmission(t *testing.T) {
	s, gate, blocker := blockedScheduler(t, Config{QueueDepth: 64})
	defer s.Close()
	defer close(gate)
	_ = blocker

	// 3 queued jobs × 1e9 modeled ns at calibration 1.0 ≈ 3s of
	// estimated wait ahead of any new arrival.
	for i := 0; i < 3; i++ {
		if _, err := s.SubmitRequest(nil, Request{Tenant: "bulk", ModeledNs: 1e9}, func(int, <-chan struct{}) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	_, err := s.SubmitRequest(nil, Request{
		Tenant: "dl", ModeledNs: 1e6, Deadline: time.Now().Add(10 * time.Millisecond),
	}, func(int, <-chan struct{}) error { return nil })
	if !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("infeasible deadline must reject with ErrDeadlineInfeasible, got %v", err)
	}
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("rejection must be a typed *AdmissionError, got %T", err)
	}
	if adm.Reason != ReasonDeadline || adm.Tenant != "dl" || adm.EstimatedWaitNs <= 0 {
		t.Fatalf("admission error fields: %+v", adm)
	}
	after := s.Stats()
	if after.Queued != before.Queued {
		t.Fatalf("deadline-rejected job must never be queued: depth %d → %d", before.Queued, after.Queued)
	}
	if after.Tiers[DefaultTierName].DeadlineRejects != 1 {
		t.Fatalf("tier deadline-reject counter: %+v", after.Tiers[DefaultTierName])
	}
	// A deadline past the backlog is feasible and admits normally.
	tk, err := s.SubmitRequest(nil, Request{
		Tenant: "dl", ModeledNs: 1e6, Deadline: time.Now().Add(time.Hour),
	}, func(int, <-chan struct{}) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if tk.EstimatedWaitNs() <= 0 {
		t.Fatal("admitted job must carry its admission estimate")
	}
}

// TestTierBacklogShedding checks MaxQueueNs: a tier that declared a
// queue-wait ceiling sheds submissions once the estimated wait
// exceeds it, wrapping ErrQueueFull under reason "tier-backlog".
func TestTierBacklogShedding(t *testing.T) {
	cfg := Config{
		QueueDepth: 64,
		Tiers:      []Tier{{Name: "latency", Weight: 1, MaxQueueNs: int64(time.Millisecond)}},
	}
	s, gate, blocker := blockedScheduler(t, cfg)
	defer s.Close()
	defer close(gate)
	_ = blocker

	for i := 0; i < 2; i++ {
		if _, err := s.SubmitRequest(nil, Request{Tenant: "bulk", ModeledNs: 1e9}, func(int, <-chan struct{}) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.SubmitRequest(nil, Request{Tenant: "lat", Tier: "latency"}, func(int, <-chan struct{}) error { return nil })
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("tier backlog shedding must unwrap to ErrQueueFull, got %v", err)
	}
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != ReasonTierBacklog || adm.Tier != "latency" {
		t.Fatalf("want tier-backlog AdmissionError, got %+v", adm)
	}
}

// TestAdmissionErrorRoundTrips checks every rejection reason unwraps
// to its sentinel through errors.Is, on top of the legacy Submit path.
func TestAdmissionErrorRoundTrips(t *testing.T) {
	s, gate, blocker := blockedScheduler(t, Config{QueueDepth: 1, TenantQuota: 1})
	defer s.Close()
	defer close(gate)
	_ = blocker

	if _, err := s.Submit(nil, "t1", func(int, <-chan struct{}) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// Queue is now full (depth 1): any tenant rejects with queue-full.
	_, err := s.Submit(nil, "t2", func(int, <-chan struct{}) error { return nil })
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != ReasonQueueFull || adm.QueueDepth != 1 {
		t.Fatalf("queue-full AdmissionError fields: %+v", adm)
	}
	// Same tenant again once a slot frees: quota (queued+running) hits
	// first. Build quota pressure with the blocker tenant itself.
	_, err = s.Submit(nil, "blocker", func(int, <-chan struct{}) error { return nil })
	if !errors.Is(err, ErrTenantQuota) && !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want a typed admission rejection, got %v", err)
	}
	if !errors.As(err, &adm) || adm.Tenant != "blocker" {
		t.Fatalf("AdmissionError must carry the tenant: %+v", adm)
	}
}

// TestTierMergeQuantiles checks the merged tier histogram is exact:
// when every tenant shares one tier, the tier's quantiles equal the
// whole-population quantiles from the scheduler's global histogram.
func TestTierMergeQuantiles(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 64})
	defer s.Close()
	var tickets []*Ticket
	for i := 0; i < 40; i++ {
		tenant := "even"
		if i%2 == 1 {
			tenant = "odd"
		}
		tk, err := s.Submit(nil, tenant, func(int, <-chan struct{}) error {
			time.Sleep(time.Duration(50+i) * time.Microsecond)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	tier, ok := st.Tiers[DefaultTierName]
	if !ok {
		t.Fatalf("default tier missing from Stats: %+v", st.Tiers)
	}
	global := s.metrics.Histogram("sched.run_ns").Snapshot()
	globalQueue := s.metrics.Histogram("sched.queue_ns").Snapshot()
	for _, q := range []float64{0.50, 0.99, 0.999} {
		if got, want := tierRunQuantile(tier, q), global.Quantile(q); got != want {
			t.Fatalf("tier run p%g = %d, global = %d — merge must be exact", q*100, got, want)
		}
		if got, want := tierQueueQuantile(tier, q), globalQueue.Quantile(q); got != want {
			t.Fatalf("tier queue p%g = %d, global = %d — merge must be exact", q*100, got, want)
		}
	}
}

func tierRunQuantile(t TierStats, q float64) int64 {
	switch q {
	case 0.50:
		return t.RunP50Ns
	case 0.99:
		return t.RunP99Ns
	default:
		return t.RunP999Ns
	}
}

func tierQueueQuantile(t TierStats, q float64) int64 {
	switch q {
	case 0.50:
		return t.QueueP50Ns
	case 0.99:
		return t.QueueP99Ns
	default:
		return t.QueueP999Ns
	}
}
