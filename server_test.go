package simdram

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// testServer builds a small server for unit tests.
func testServer(t testing.TB, channels int, tune func(*ServerConfig)) *Server {
	t.Helper()
	cfg := DefaultServerConfig(channels)
	cfg.Channel.DRAM.Cols = 128
	cfg.Channel.DRAM.Banks = 2
	cfg.Channel.DRAM.SubarraysPerBank = 2
	if tune != nil {
		tune(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// randData returns n random width-masked elements.
func randData(rng *rand.Rand, n, width int) []uint64 {
	data := make([]uint64, n)
	mask := uint64(1)<<uint(width) - 1
	for i := range data {
		data[i] = rng.Uint64() & mask
	}
	return data
}

func TestServerSubmitLazyGolden(t *testing.T) {
	srv := testServer(t, 2, nil)
	rng := rand.New(rand.NewSource(3))
	const n = 100
	a, b, c := randData(rng, n, 8), randData(rng, n, 8), randData(rng, n, 8)

	ea, eb, ec := Input(a, 8), Input(b, 8), Input(c, 8)
	sum := ea.Add(eb)
	root2 := sum.Max(ec)
	fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "t1"}, sum, root2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 2 {
		t.Fatalf("got %d result vectors, want 2", len(res.Values))
	}
	for i := 0; i < n; i++ {
		s := (a[i] + b[i]) & 0xFF
		m := s
		if c[i] > m {
			m = c[i]
		}
		if res.Values[0][i] != s || res.Values[1][i] != m {
			t.Fatalf("element %d: got (%d,%d), want (%d,%d)", i, res.Values[0][i], res.Values[1][i], s, m)
		}
	}
	if res.Batch.Instructions == 0 || res.Channel < 0 || res.RunNs <= 0 {
		t.Fatalf("result metadata not filled: %+v", res)
	}
	if res.Compile.CacheHit {
		t.Fatal("first request cannot hit the plan cache")
	}
}

func TestServerRejectsBoundExpressions(t *testing.T) {
	srv := testServer(t, 1, nil)
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	v, err := sys.AllocVector(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Free()
	if _, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "t"}, sys.Lazy(v).Add(Scalar(1, 8))); err == nil {
		t.Fatal("expression bound to a System vector must be rejected at submit")
	}
	if _, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "t"}); err == nil {
		t.Fatal("empty submission must be rejected")
	}
}

// blockedServer wedges a 1-channel server's worker on a raw job so
// later submissions queue deterministically.
func blockedServer(t *testing.T, tune func(*ServerConfig)) (*Server, chan struct{}, *Future) {
	t.Helper()
	srv := testServer(t, 1, tune)
	gate := make(chan struct{})
	blocker, err := srv.SubmitFn(nil, JobSpec{Tenant: "blocker"}, func(sys *System, cancel <-chan struct{}) error {
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

func TestServerQueueFullAndQuota(t *testing.T) {
	srv, gate, _ := blockedServer(t, func(cfg *ServerConfig) {
		cfg.QueueDepth = 2
		cfg.TenantQuota = 1
	})
	defer close(gate)
	e := func() *Expr { return Input([]uint64{1, 2, 3}, 8).Add(Scalar(1, 8)) }

	if _, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "a"}, e()); err != nil {
		t.Fatal(err)
	}
	// Tenant a is at its quota (1 queued).
	if _, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "a"}, e()); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("over-quota submit: %v, want ErrTenantQuota", err)
	}
	// Tenant b fills the global queue (depth 2).
	if _, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "b"}, e()); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "c"}, e()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-depth submit: %v, want ErrQueueFull", err)
	}
	st := srv.Stats()
	if st.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", st.Rejected)
	}
}

func TestServerCtxCanceledMidQueue(t *testing.T) {
	srv, gate, blocker := blockedServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	fut, err := srv.SubmitJob(ctx, JobSpec{Tenant: "a"}, Input([]uint64{1, 2, 3}, 8).Add(Scalar(1, 8)))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := fut.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled mid-queue: %v, want context.Canceled", err)
	}
	close(gate)
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Canceled != 1 {
		t.Fatalf("canceled = %d, want 1", st.Canceled)
	}
}

func TestServerCloseDrainsQueue(t *testing.T) {
	srv, gate, blocker := blockedServer(t, nil)
	fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "a"}, Input([]uint64{1, 2, 3}, 8).Add(Scalar(1, 8)))
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	if _, err := fut.Wait(); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("queued job at Close: %v, want ErrServerClosed", err)
	}
	close(gate)
	if _, err := blocker.Wait(); err != nil {
		t.Fatalf("running job must finish through Close: %v", err)
	}
	<-closed
	if _, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "a"}, Input([]uint64{1}, 8)); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("submit after Close: %v, want ErrServerClosed", err)
	}
}

// TestServerConcurrentSubmit exercises the plan cache under parallel
// Submit from several tenants (run with -race in CI): every job's
// results are verified against the golden model, and the repeated
// shape must converge to cache hits.
func TestServerConcurrentSubmit(t *testing.T) {
	srv := testServer(t, 4, func(cfg *ServerConfig) { cfg.QueueDepth = 64 })
	const n, jobsPer = 64, 12
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			tenant := string(rune('a' + g))
			for i := 0; i < jobsPer; i++ {
				a, b := randData(rng, n, 8), randData(rng, n, 8)
				fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: tenant},
					Input(a, 8).Add(Input(b, 8)).Max(Input(a, 8)))
				if err != nil {
					t.Errorf("%s job %d: %v", tenant, i, err)
					return
				}
				res, err := fut.Wait()
				if err != nil {
					t.Errorf("%s job %d: %v", tenant, i, err)
					return
				}
				for j := 0; j < n; j++ {
					s := (a[j] + b[j]) & 0xFF
					if a[j] > s {
						s = a[j]
					}
					if res.Values[0][j] != s {
						t.Errorf("%s job %d element %d: got %d, want %d", tenant, i, j, res.Values[0][j], s)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	st := srv.Stats()
	if st.Completed != 4*jobsPer {
		t.Fatalf("completed = %d, want %d", st.Completed, 4*jobsPer)
	}
	// All 48 jobs share one shape: at most a few racing cold compiles,
	// everything else hits.
	if st.Cache.Hits < 4*jobsPer-8 {
		t.Fatalf("cache hits = %d of %d, want near-total reuse: %+v", st.Cache.Hits, 4*jobsPer, st.Cache)
	}
	var util float64
	for name, ts := range st.Tenants {
		if ts.Completed != jobsPer {
			t.Fatalf("tenant %s completed %d, want %d", name, ts.Completed, jobsPer)
		}
		util += ts.Utilization
	}
	if util < 0.999 || util > 1.001 {
		t.Fatalf("tenant utilizations sum to %v, want 1", util)
	}
}

// TestServerRawSubmitPreemption pins the raw-job cancel channel: it
// closes when the submission context expires while the job runs.
func TestServerRawSubmitPreemption(t *testing.T) {
	srv := testServer(t, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	fut, err := srv.SubmitFn(ctx, JobSpec{Tenant: "a"}, func(sys *System, c <-chan struct{}) error {
		close(started)
		<-c
		return errors.New("preempted")
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	if _, err := fut.Wait(); err == nil || err.Error() != "preempted" {
		t.Fatalf("Wait = %v, want the job's preemption error", err)
	}
}
