package simdram

import (
	"context"
	"slices"
	"testing"

	"simdram/internal/graph"
)

// profileTestConfig returns a geometry whose vectors span many
// segments per bank (Cols shrunk to 64), so an instruction's measured
// latency is an integer multiple of the static per-subarray cost model
// — the divergence the profile-feedback loop exists to correct.
func profileTestConfig() Config {
	cfg := DefaultConfig()
	cfg.DRAM.Cols = 64
	return cfg
}

// profileShape is the skewed request shape the feedback tests serve: a
// multiplication chain (expensive μPrograms) against a cheap side
// chain, plus a folding constant pair.
func profileShape(data []uint64) *Expr {
	a := Input(data, 8)
	b := Input(data, 8)
	hot := a.Mul(b).Abs()
	cold := a.Max(b).Min(a).Add(Scalar(3, 8).Add(Scalar(4, 8)))
	return hot.Apply("greater", cold.Mul(cold)).IfElse(a, b)
}

// TestDirectCompilesKeepTheirPlan pins that direct compiles take no
// profile feedback: on a System and on a 4-channel Cluster, repeated
// Compile→Execute rounds of the skewed shape — more than a Server needs
// to recompile it — all run the first round's cached plan, with
// bit-identical results and an equal critical path.
func TestDirectCompilesKeepTheirPlan(t *testing.T) {
	type round struct {
		st     CompileStats
		g      *graph.Graph // the plan's own graph: one per *graph.Plan
		out    []uint64
		pathNs float64
	}
	check := func(t *testing.T, run func(data []uint64) round, n int) {
		data := make([]uint64, n)
		for i := range data {
			data[i] = uint64(i*37+11) & 0xFF
		}
		first := run(data)
		if first.st.CacheHit || first.st.Recompiled || first.st.ProfiledPlan {
			t.Fatalf("round 0 stats = %+v, want a plain cold compile", first.st)
		}
		for r := 1; r < DefaultProfileMinJobs+2; r++ {
			got := run(data)
			if !got.st.CacheHit || got.g != first.g {
				t.Fatalf("round %d: CacheHit %v, same plan %v; want a hit on round 0's plan", r, got.st.CacheHit, got.g == first.g)
			}
			if got.st.Recompiled || got.st.ProfiledPlan {
				t.Fatalf("round %d stats = %+v, want no profile-guided plan", r, got.st)
			}
			if !slices.Equal(got.out, first.out) {
				t.Fatalf("round %d results differ from round 0's", r)
			}
			if got.pathNs != first.pathNs {
				t.Fatalf("round %d critical path %v ns, round 0 %v ns", r, got.pathNs, first.pathNs)
			}
		}
	}
	t.Run("System", func(t *testing.T) {
		sys, err := New(profileTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		// 1024 elements: 16 segments over 4 banks.
		check(t, func(data []uint64) round {
			e := profileShape(data)
			cp, err := sys.Compile(e)
			if err != nil {
				t.Fatal(err)
			}
			defer cp.Free()
			bst, err := cp.Execute()
			if err != nil {
				t.Fatal(err)
			}
			defer e.Result().Free()
			out, err := e.Result().Load()
			if err != nil {
				t.Fatal(err)
			}
			return round{cp.Stats(), cp.lw.g, out, bst.CriticalPathNs}
		}, 1024)
	})
	t.Run("Cluster", func(t *testing.T) {
		cl, err := NewCluster(ClusterConfig{Channels: 4, Channel: profileTestConfig()})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		// 2048 elements: 512 per channel, 8 segments over 4 banks.
		check(t, func(data []uint64) round {
			e := profileShape(data)
			cp, err := cl.Compile(e)
			if err != nil {
				t.Fatal(err)
			}
			defer cp.Free()
			bst, err := cp.Execute()
			if err != nil {
				t.Fatal(err)
			}
			defer e.ShardedResult().Free()
			out, err := e.ShardedResult().Load()
			if err != nil {
				t.Fatal(err)
			}
			return round{cp.Stats(), cp.lw.g, out, bst.CriticalPathNs}
		}, 2048)
	})
}

// TestServerProfileFeedback drives the serving loop: repeated jobs of
// one shape through a Server must converge onto a profiled plan, keep
// results bit-identical, and surface the recompile and the modeled-
// time feedback in the server stats.
func TestServerProfileFeedback(t *testing.T) {
	cfg := DefaultServerConfig(1)
	cfg.Channel = profileTestConfig()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 1024
	data := make([]uint64, n)
	for i := range data {
		data[i] = uint64(i*91+5) & 0xFF
	}

	var coldOut []uint64
	var coldPathNs float64
	recompiles := 0
	const jobs = DefaultProfileMinJobs + 3
	for i := 0; i < jobs; i++ {
		fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "tenant-a"}, profileShape(data))
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			coldOut = append([]uint64(nil), res.Values[0]...)
			coldPathNs = res.Batch.CriticalPathNs
		} else {
			for j, v := range res.Values[0] {
				if v != coldOut[j] {
					t.Fatalf("job %d element %d: %d != cold job's %d", i, j, v, coldOut[j])
				}
			}
		}
		if res.Compile.Recompiled {
			recompiles++
			if res.Batch.CriticalPathNs > coldPathNs {
				t.Fatalf("recompiled job's critical path %.2f ns > cold job's %.2f ns",
					res.Batch.CriticalPathNs, coldPathNs)
			}
		}
	}
	if recompiles != 1 {
		t.Fatalf("%d recompiled jobs, want exactly 1", recompiles)
	}
	st := srv.Stats()
	if st.Profile.Recompiles != 1 || st.Profile.Shapes != 1 || st.Profile.Jobs != jobs {
		t.Fatalf("server profile stats = %+v, want 1 recompile over %d jobs of 1 shape", st.Profile, jobs)
	}
	if st.Cache.Policy != "cost-lru" {
		t.Fatalf("cache policy = %q, want cost-lru", st.Cache.Policy)
	}
	ts := st.Tenants["tenant-a"]
	if ts.ModeledNs <= 0 {
		t.Fatalf("tenant modeled time = %v, want > 0 (executed stats fed back to the scheduler)", ts.ModeledNs)
	}
}
