package simdram

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestServerAdmissionPriceIsExecutedTime holds the admission price to
// the executed modeled time on random DAGs at 1, 2 and 3 rounds (100,
// 300 and 600 elements over testServer's 128 columns and 2 banks).
// Every object of a served job sits at segment origin 0, so a job runs
// its instructions one after another, and admission prices the plan
// the job carries at that serial time: a plan-cache hit, a cold compile
// and a profile-guided recompile all price exactly their batch's
// critical path, bit for bit.
func TestServerAdmissionPriceIsExecutedTime(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cache int
	}{{"cached", 0}, {"cache off", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			srv := testServer(t, 2, func(cfg *ServerConfig) { cfg.PlanCacheSize = tc.cache })
			rng := rand.New(rand.NewSource(41))
			var hits, profiledHits, misses, recompiles int
			for dag := 0; dag < 6; dag++ {
				nOps := 13 + rng.Intn(12)
				for _, n := range []int{100, 300, 600} {
					data := [][]uint64{randData(rng, n, 8), randData(rng, n, 8), randData(rng, n, 8)}
					shape := rng.Int63()
					for rep := 0; rep < DefaultProfileMinJobs+3; rep++ {
						leaves := make([]*Expr, len(data))
						for i := range leaves {
							leaves[i] = Input(data[i], 8)
						}
						roots := buildRandomDAG(rand.New(rand.NewSource(shape)), leaves, 8, nOps)
						fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "price"}, roots...)
						if err != nil {
							t.Fatal(err)
						}
						res, err := fut.Wait()
						if err != nil {
							t.Fatal(err)
						}
						price, ran := res.Admission.ModeledNs, res.Batch.CriticalPathNs
						switch {
						case res.Compile.CacheHit:
							hits++
							if res.Compile.ProfiledPlan {
								profiledHits++
							}
						case res.Compile.Recompiled:
							recompiles++
						default:
							misses++
						}
						if price != ran {
							t.Fatalf("dag %d n %d job %d: priced %v ns, ran %v ns (%+v)",
								dag, n, rep, price, ran, res.Compile)
						}
					}
				}
			}
			switch {
			case tc.cache < 0 && hits != 0:
				t.Fatalf("%d hits with the plan cache off", hits)
			case tc.cache >= 0 && (hits == 0 || profiledHits == 0 || recompiles == 0):
				t.Fatalf("%d hits, %d on a profiled plan, %d recompiles: want all > 0", hits, profiledHits, recompiles)
			case misses == 0:
				t.Fatal("no miss was checked")
			}
		})
	}
}

// TestServerEmptyPlanPricedZero serves a job whose plan runs nothing,
// an Input root and a constant that folds away, after multiplications
// have given the scheduler a trailing average: the job is admitted at
// its own price, 0, not at the average charge of an unpriced job.
func TestServerEmptyPlanPricedZero(t *testing.T) {
	srv := testServer(t, 1, nil)
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 6; i++ {
		fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "mul"},
			Input(randData(rng, 200, 8), 8).Mul(Input(randData(rng, 200, 8), 8)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	a := randData(rng, 200, 8)
	fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "empty"},
		Input(a, 8), Scalar(1, 8).Add(Scalar(2, 8)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.CriticalPathNs != 0 || res.Admission.ModeledNs != 0 {
		t.Fatalf("empty plan ran %v ns and was priced %v ns, want 0 and 0", res.Batch.CriticalPathNs, res.Admission.ModeledNs)
	}
	if !slices.Equal(res.Values[0], a) || slices.ContainsFunc(res.Values[1], func(v uint64) bool { return v != 3 }) {
		t.Fatalf("empty plan's results are wrong: %v, %v", res.Values[0][:4], res.Values[1][:4])
	}
}

// TestServerRejectedColdSubmissionCachesItsPlan pins that admission
// has no check before the compile: a cold submission the full queue
// rejects has still compiled its plan into the cache, so resubmitting
// the shape is a plan-cache hit, priced at exactly its executed time.
func TestServerRejectedColdSubmissionCachesItsPlan(t *testing.T) {
	srv, gate, blocker := blockedTierServer(t, func(cfg *ServerConfig) { cfg.QueueDepth = 1 })
	var gateOnce sync.Once
	releaseGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer releaseGate()
	rng := rand.New(rand.NewSource(44))
	queued, err := srv.SubmitFn(context.Background(), JobSpec{Tenant: "queued"}, func(*System, <-chan struct{}) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	shape := func() *Expr {
		return Input(randData(rng, 100, 8), 8).Add(Input(randData(rng, 100, 8), 8)).Max(Scalar(5, 8))
	}
	if _, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "cold"}, shape()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("cold submission to a full queue: %v, want ErrQueueFull", err)
	}
	releaseGate()
	for _, f := range []*Future{blocker, queued} {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "cold"}, shape())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compile.CacheHit {
		t.Fatal("the resubmitted shape missed the plan cache: the rejected submission cached no plan")
	}
	if res.Admission.ModeledNs != res.Batch.CriticalPathNs {
		t.Fatalf("resubmission priced %v ns, ran %v ns", res.Admission.ModeledNs, res.Batch.CriticalPathNs)
	}
}
