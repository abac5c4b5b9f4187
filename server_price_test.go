package simdram

import (
	"context"
	"math/rand"
	"testing"
)

// TestServerAdmissionPriceIsExecutedTime holds the admission price to
// the executed modeled time on random DAGs at 1, 2 and 3 rounds (100,
// 300 and 600 elements over testServer's 128 columns and 2 banks).
// Every object of a served job sits at segment origin 0, so a job runs
// its instructions one after another:
//   - a plan-cache hit is priced at its plan's serial time, which is
//     exactly its batch's critical path, also once the profile-guided
//     recompile has replaced the plan;
//   - a miss is priced over the unoptimized graph, which folding, CSE
//     and DCE only shrink, so its price is at least the executed time
//     (up to summation order).
//
// Jobs are submitted one at a time, so each is priced against the plan
// it runs, except the job whose run claims the recompile (a miss here).
func TestServerAdmissionPriceIsExecutedTime(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cache int
	}{{"cached", 0}, {"cache off", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			srv := testServer(t, 2, func(cfg *ServerConfig) { cfg.PlanCacheSize = tc.cache })
			rng := rand.New(rand.NewSource(41))
			var hits, profiledHits, misses int
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
						if res.Compile.CacheHit {
							hits++
							if res.Compile.ProfiledPlan {
								profiledHits++
							}
							if price != ran {
								t.Fatalf("dag %d n %d job %d: hit priced %v ns, ran %v ns (profiled plan %v)",
									dag, n, rep, price, ran, res.Compile.ProfiledPlan)
							}
							continue
						}
						misses++
						if price < ran*(1-1e-9) {
							t.Fatalf("dag %d n %d job %d: miss priced %v ns, below the %v ns it ran (recompiled %v)",
								dag, n, rep, price, ran, res.Compile.Recompiled)
						}
					}
				}
			}
			switch {
			case tc.cache < 0 && hits != 0:
				t.Fatalf("%d hits with the plan cache off", hits)
			case tc.cache >= 0 && (hits == 0 || profiledHits == 0):
				t.Fatalf("%d hits, %d on a profiled plan: want both > 0", hits, profiledHits)
			case misses == 0:
				t.Fatal("no miss was checked")
			}
		})
	}
}
