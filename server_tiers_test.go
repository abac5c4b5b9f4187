package simdram

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestSubmitJobRepeatEquivalence checks that two submissions of one
// expression shape — the second served from the plan cache or
// coalesced onto the first's compile — return identical values and
// both carry an admission estimate.
func TestSubmitJobRepeatEquivalence(t *testing.T) {
	srv := testServer(t, 2, nil)
	rng := rand.New(rand.NewSource(11))
	const n = 64
	a, b := randData(rng, n, 8), randData(rng, n, 8)

	build := func() *Expr { return Input(a, 8).Add(Input(b, 8)).Max(Scalar(17, 8)) }
	firstFut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "compat"}, build())
	if err != nil {
		t.Fatal(err)
	}
	repeatFut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "compat"}, build())
	if err != nil {
		t.Fatal(err)
	}
	firstRes, err := firstFut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	repeatRes, err := repeatFut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(firstRes.Values) != 1 || len(repeatRes.Values) != 1 {
		t.Fatalf("result counts: first=%d repeat=%d", len(firstRes.Values), len(repeatRes.Values))
	}
	for i := range firstRes.Values[0] {
		if firstRes.Values[0][i] != repeatRes.Values[0][i] {
			t.Fatalf("element %d differs between first and repeat submission: %d vs %d",
				i, firstRes.Values[0][i], repeatRes.Values[0][i])
		}
	}
	if firstRes.Admission.ModeledNs <= 0 || repeatRes.Admission.ModeledNs <= 0 {
		t.Fatalf("both submissions must carry an admission estimate: first=%+v repeat=%+v",
			firstRes.Admission, repeatRes.Admission)
	}
}

// blockedTierServer wedges a 1-channel server's worker so later
// submissions queue (or reject) deterministically.
func blockedTierServer(t *testing.T, tune func(*ServerConfig)) (*Server, chan struct{}, *Future) {
	t.Helper()
	srv := testServer(t, 1, tune)
	gate := make(chan struct{})
	blocker, err := srv.SubmitFn(context.Background(), JobSpec{Tenant: "blocker"}, func(sys *System, cancel <-chan struct{}) error {
		<-gate
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if srv.Stats().Running == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("worker never started the blocker job")
		}
		time.Sleep(time.Millisecond)
	}
	return srv, gate, blocker
}

// TestServerDeadlineRejection checks an infeasible deadline rejects at
// admission with the typed error — never queued — and that a feasible
// deadline admits with the estimate surfaced in the JobResult.
func TestServerDeadlineRejection(t *testing.T) {
	srv, gate, _ := blockedTierServer(t, func(cfg *ServerConfig) {
		cfg.QueueDepth = 32
	})
	var gateOnce sync.Once
	releaseGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer releaseGate()
	rng := rand.New(rand.NewSource(5))
	data := randData(rng, 256, 16)
	expr := func() *Expr { return Input(data, 16).Add(Scalar(3, 16)).Max(Scalar(9, 16)) }

	// Back the queue up behind the blocker so any new arrival sees a
	// non-trivial estimated wait.
	for i := 0; i < 8; i++ {
		if _, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "bulk"}, expr()); err != nil {
			t.Fatal(err)
		}
	}
	depthBefore := srv.Stats().QueueDepth
	_, err := srv.SubmitJob(context.Background(), JobSpec{
		Tenant: "dl", Deadline: time.Now().Add(time.Nanosecond),
	}, expr())
	if !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("want ErrDeadlineInfeasible, got %v", err)
	}
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("want *AdmissionError, got %T", err)
	}
	if adm.Tenant != "dl" || adm.ModeledNs <= 0 {
		t.Fatalf("admission error must carry tenant and modeled cost: %+v", adm)
	}
	if got := srv.Stats().QueueDepth; got != depthBefore {
		t.Fatalf("rejected job must never be queued: depth %d → %d", depthBefore, got)
	}
	// A generous deadline admits, and the future's result carries the
	// admission estimate for auditing.
	fut, err := srv.SubmitJob(context.Background(), JobSpec{
		Tenant: "dl", Deadline: time.Now().Add(time.Hour),
	}, expr())
	if err != nil {
		t.Fatal(err)
	}
	releaseGate()
	res, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Admission.ModeledNs <= 0 {
		t.Fatalf("admitted job must carry its modeled-cost estimate: %+v", res.Admission)
	}
}

// TestServerTierStats checks ServerStats.Tiers: declared tiers appear,
// tenants land in their tiers, shares sum to 1, and single-tier merged
// quantiles equal the whole population's.
func TestServerTierStats(t *testing.T) {
	srv := testServer(t, 2, func(cfg *ServerConfig) {
		cfg.Tiers = []Tier{
			{Name: "gold", Weight: 4, Priority: 1},
			{Name: "bronze", Weight: 1},
		}
	})
	rng := rand.New(rand.NewSource(7))
	const jobs = 12
	var futs []*Future
	for i := 0; i < jobs; i++ {
		data := randData(rng, 128, 8)
		spec := JobSpec{Tenant: "g1", Tier: "gold"}
		if i%3 == 0 {
			spec = JobSpec{Tenant: "b1", Tier: "bronze"}
		}
		fut, err := srv.SubmitJob(context.Background(), spec, Input(data, 8).Add(Scalar(1, 8)))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	for _, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	gold, ok := st.Tiers["gold"]
	if !ok {
		t.Fatalf("gold tier missing: %+v", st.Tiers)
	}
	bronze := st.Tiers["bronze"]
	if gold.Weight != 4 || gold.Priority != 1 || gold.Tenants != 1 {
		t.Fatalf("gold tier config/membership: %+v", gold)
	}
	if gold.Dispatched+bronze.Dispatched != jobs {
		t.Fatalf("tier dispatch counts %d+%d, want %d", gold.Dispatched, bronze.Dispatched, jobs)
	}
	var share float64
	for _, tier := range st.Tiers {
		share += tier.ShareOfDevice
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("tier shares must sum to 1, got %.4f", share)
	}
	if ts, ok := st.Tenants["g1"]; !ok || ts.Submitted == 0 {
		t.Fatalf("tenant g1 stats missing: %+v", st.Tenants)
	}
}

// TestServerSingleTierQuantilesMatchPopulation checks the tier-merge
// identity at the serving layer: with every tenant in the (implicit)
// default tier, the tier's quantiles equal the scheduler's global
// histogram quantiles exactly.
func TestServerSingleTierQuantilesMatchPopulation(t *testing.T) {
	srv := testServer(t, 2, nil)
	rng := rand.New(rand.NewSource(13))
	var futs []*Future
	for i := 0; i < 16; i++ {
		data := randData(rng, 64, 8)
		tenant := "ta"
		if i%2 == 1 {
			tenant = "tb"
		}
		fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: tenant}, Input(data, 8).Add(Scalar(2, 8)))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	for _, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	tier, ok := srv.Stats().Tiers["default"]
	if !ok {
		t.Fatal("implicit default tier must appear once traffic ran")
	}
	global := srv.Metrics()
	var p50, p99 int64
	for _, mp := range global {
		if mp.Name == "sched.run_ns" {
			p50, p99 = mp.P50, mp.P99
		}
	}
	if tier.RunP50Ns != p50 || tier.RunP99Ns != p99 {
		t.Fatalf("single-tier merged quantiles (p50=%d p99=%d) must equal population (p50=%d p99=%d)",
			tier.RunP50Ns, tier.RunP99Ns, p50, p99)
	}
}
