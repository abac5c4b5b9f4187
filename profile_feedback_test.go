package simdram

import (
	"context"
	"testing"
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

// TestProfileFeedbackRecompileSystem drives the full loop on one
// System: repeated materializations of one shape fold measured per-op
// latencies into its profile, divergence triggers exactly one
// profile-guided recompile, and the recompiled plan's results are
// bit-identical to the cold compile with a critical path no worse.
func TestProfileFeedbackRecompileSystem(t *testing.T) {
	sys, err := New(profileTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	const n = 1024 // 16 segments over 4 banks: measured = 4× the static model
	data := make([]uint64, n)
	for i := range data {
		data[i] = uint64(i*37+11) & 0xFF
	}

	var coldOut []uint64
	var coldPathNs float64
	recompiles := 0
	for run := 0; run < DefaultProfileMinJobs+2; run++ {
		e := profileShape(data)
		cp, err := sys.Compile(e)
		if err != nil {
			t.Fatal(err)
		}
		st := cp.Stats()
		bst, err := cp.Execute()
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Result().Load()
		if err != nil {
			t.Fatal(err)
		}
		cp.Free()
		e.Result().Free()

		switch {
		case run == 0:
			if st.CacheHit || st.Recompiled {
				t.Fatalf("run 0 stats = %+v, want a plain cold compile", st)
			}
			coldOut = append([]uint64(nil), got...)
			coldPathNs = bst.CriticalPathNs
		default:
			for j := range got {
				if got[j] != coldOut[j] {
					t.Fatalf("run %d element %d: %d != cold compile's %d", run, j, got[j], coldOut[j])
				}
			}
		}
		if st.Recompiled {
			recompiles++
			if !st.ProfiledPlan {
				t.Fatalf("run %d: Recompiled without ProfiledPlan: %+v", run, st)
			}
			if st.ProfileJobs < DefaultProfileMinJobs {
				t.Fatalf("run %d: recompile with only %d profiled jobs", run, st.ProfileJobs)
			}
			if bst.CriticalPathNs > coldPathNs {
				t.Fatalf("recompiled schedule's critical path %.2f ns > cold compile's %.2f ns",
					bst.CriticalPathNs, coldPathNs)
			}
		}
	}
	if recompiles != 1 {
		t.Fatalf("%d profile-guided recompiles, want exactly 1", recompiles)
	}
	if ps := sys.ProfileStats(); ps.Recompiles != 1 || ps.Jobs == 0 {
		t.Fatalf("profile stats = %+v, want 1 recompile over recorded jobs", ps)
	}
	// Later compiles keep hitting the recompiled (profiled) plan.
	e := profileShape(data)
	cp, err := sys.Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	if st := cp.Stats(); !st.CacheHit || !st.ProfiledPlan {
		t.Fatalf("post-recompile compile stats = %+v, want a hit on the profiled plan", st)
	}
	cp.Free()
	e.Result().Free()
}

// TestProfileFeedbackRecompileCluster is the same differential on a
// 4-channel cluster: the recompiled plan must produce bit-identical
// results to the cold compile across the sharded fabric.
func TestProfileFeedbackRecompileCluster(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Channels: 4, Channel: profileTestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 2048 // 512/channel → 8 segments over 4 banks per channel
	data := make([]uint64, n)
	for i := range data {
		data[i] = uint64(i*53+7) & 0xFF
	}

	var coldOut []uint64
	recompiled := false
	for run := 0; run < DefaultProfileMinJobs+2; run++ {
		e := profileShape(data)
		cp, err := cl.Compile(e)
		if err != nil {
			t.Fatal(err)
		}
		st := cp.Stats()
		if _, err := cp.Execute(); err != nil {
			t.Fatal(err)
		}
		got, err := e.ShardedResult().Load()
		if err != nil {
			t.Fatal(err)
		}
		cp.Free()
		e.ShardedResult().Free()

		if run == 0 {
			coldOut = append([]uint64(nil), got...)
		} else {
			for j := range got {
				if got[j] != coldOut[j] {
					t.Fatalf("run %d element %d: %d != cold compile's %d", run, j, got[j], coldOut[j])
				}
			}
		}
		recompiled = recompiled || st.Recompiled
	}
	if !recompiled {
		t.Fatal("cluster profile feedback never triggered a recompile")
	}
	if ps := cl.ProfileStats(); ps.Recompiles != 1 {
		t.Fatalf("cluster profile stats = %+v, want exactly 1 recompile", ps)
	}
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
