package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"simdram/internal/obs"
)

// blockedScheduler returns a 1-worker scheduler whose worker is
// wedged on a gate job, so later submissions queue deterministically.
func blockedScheduler(t *testing.T, cfg Config) (*Scheduler, chan struct{}, *Ticket) {
	t.Helper()
	cfg.Workers = 1
	s := New(cfg)
	gate := make(chan struct{})
	blocker, err := s.Submit(nil, "blocker", func(worker int, cancel <-chan struct{}) error {
		<-gate
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker actually picked the blocker up, so the
	// queue is empty and counts are deterministic.
	for i := 0; ; i++ {
		st := s.Stats()
		if st.Running == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("worker never started the blocker job")
		}
		time.Sleep(time.Millisecond)
	}
	return s, gate, blocker
}

func TestRoundRobinFairness(t *testing.T) {
	s, gate, blocker := blockedScheduler(t, Config{QueueDepth: 16})
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
	// Tenant a floods first; tenant b arrives after. Round-robin must
	// interleave them rather than draining a's backlog first.
	var tickets []*Ticket
	for _, sub := range []struct{ tenant, name string }{
		{"a", "a1"}, {"a", "a2"}, {"a", "a3"}, {"b", "b1"}, {"b", "b2"},
	} {
		tk, err := s.Submit(nil, sub.tenant, task(sub.name))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
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
	want := []string{"a1", "b1", "a2", "b2", "a3"}
	if len(order) != len(want) {
		t.Fatalf("ran %d jobs, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v (one job per tenant per turn)", order, want)
		}
	}
}

func TestPanickingJobContainedAsError(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()

	bad, err := s.Submit(nil, "a", func(worker int, cancel <-chan struct{}) error {
		panic("tenant bug")
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking job: err = %v, want a contained panic error", err)
	}
	// The worker must survive to run the next tenant's job.
	okTk, err := s.Submit(nil, "b", func(worker int, cancel <-chan struct{}) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := okTk.Wait(); err != nil {
		t.Fatalf("job after a panic: %v (worker died?)", err)
	}
	st := s.Stats()
	if st.Tenants["a"].Failed != 1 || st.Tenants["b"].Completed != 1 {
		t.Fatalf("stats after panic: a.Failed=%d b.Completed=%d, want 1/1",
			st.Tenants["a"].Failed, st.Tenants["b"].Completed)
	}
}

func TestQueueFullRejection(t *testing.T) {
	s, gate, _ := blockedScheduler(t, Config{QueueDepth: 2})
	defer s.Close()
	defer close(gate)

	ok := func(worker int, cancel <-chan struct{}) error { return nil }
	if _, err := s.Submit(nil, "a", ok); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(nil, "b", ok); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(nil, "c", ok); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third queued submission: err = %v, want ErrQueueFull", err)
	}
	st := s.Stats()
	if st.Rejected != 1 || st.Tenants["c"].Rejected != 1 {
		t.Fatalf("rejected counters: total %d, tenant-c %d, want 1/1", st.Rejected, st.Tenants["c"].Rejected)
	}
}

func TestTenantQuotaRejection(t *testing.T) {
	// The blocker (tenant "blocker") is RUNNING and must count toward
	// its own quota of 1; other tenants are unaffected.
	s, gate, _ := blockedScheduler(t, Config{QueueDepth: 16, TenantQuota: 1})
	defer s.Close()
	defer close(gate)

	ok := func(worker int, cancel <-chan struct{}) error { return nil }
	if _, err := s.Submit(nil, "blocker", ok); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("over-quota submission: err = %v, want ErrTenantQuota", err)
	}
	if _, err := s.Submit(nil, "other", ok); err != nil {
		t.Fatalf("other tenant must not be affected by blocker's quota: %v", err)
	}
	if _, err := s.Submit(nil, "other", ok); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("other tenant's second queued job: err = %v, want ErrTenantQuota", err)
	}
}

func TestContextCanceledMidQueue(t *testing.T) {
	s, gate, _ := blockedScheduler(t, Config{QueueDepth: 1})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	tk, err := s.Submit(ctx, "a", func(worker int, c <-chan struct{}) error {
		ran = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	// The job resolves with the context error without ever running,
	// even though the worker is still wedged.
	if err := tk.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("canceled queued job must not run")
	}
	// Its queue slot was released: the queue (depth 1) accepts again.
	if _, err := s.Submit(nil, "a", func(worker int, c <-chan struct{}) error { return nil }); err != nil {
		t.Fatalf("slot not released after mid-queue cancel: %v", err)
	}
	if st := s.Stats(); st.Canceled != 1 {
		t.Fatalf("canceled counter = %d, want 1", st.Canceled)
	}
	close(gate)
}

func TestContextCancelPreemptsRunningJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	tk, err := s.Submit(ctx, "a", func(worker int, c <-chan struct{}) error {
		close(started)
		<-c // the cancel channel must fire when ctx expires
		return errors.New("preempted")
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	if err := tk.Wait(); err == nil || err.Error() != "preempted" {
		t.Fatalf("Wait = %v, want the job's own preemption error", err)
	}
}

func TestExpiredContextRejectedAtSubmit(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(ctx, "a", func(worker int, c <-chan struct{}) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with expired ctx = %v, want context.Canceled", err)
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	s, gate, blocker := blockedScheduler(t, Config{QueueDepth: 8})
	tk, err := s.Submit(nil, "a", func(worker int, c <-chan struct{}) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	// The queued job fails with ErrClosed during the drain, while the
	// running blocker is still in flight.
	if err := tk.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("queued job after Close: err = %v, want ErrClosed", err)
	}
	close(gate)
	if err := blocker.Wait(); err != nil {
		t.Fatalf("running job must complete through Close: %v", err)
	}
	<-closed
	if _, err := s.Submit(nil, "a", func(worker int, c <-chan struct{}) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
}

func TestTicketTimingsAndStats(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Close()
	tk, err := s.Submit(nil, "a", func(worker int, c <-chan struct{}) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if tk.RunNs() < int64(time.Millisecond) {
		t.Fatalf("RunNs = %d, want >= 1ms", tk.RunNs())
	}
	if tk.QueueNs() < 0 || tk.Worker() < 0 || tk.Worker() > 1 {
		t.Fatalf("QueueNs=%d Worker=%d out of range", tk.QueueNs(), tk.Worker())
	}
	st := s.Stats()
	ts := st.Tenants["a"]
	if ts.Completed != 1 || ts.BusyNs < int64(time.Millisecond) {
		t.Fatalf("tenant stats %+v, want 1 completed with >=1ms busy", ts)
	}
}

// TestDurationNsMonotonicGuard pins the queue-era clock guard: a
// degenerate interval (end before start, as after a wall-clock
// adjustment on times that lost their monotonic reading) clamps to
// zero instead of going negative.
func TestDurationNsMonotonicGuard(t *testing.T) {
	a := time.Now()
	b := a.Add(5 * time.Millisecond)
	if got := durationNs(a, b); got != int64(5*time.Millisecond) {
		t.Fatalf("forward interval = %d, want 5ms", got)
	}
	// Strip the monotonic reading and reverse the interval.
	ar, br := a.Round(0), b.Round(0)
	if got := durationNs(br, ar); got != 0 {
		t.Fatalf("reversed interval = %d, want clamped 0", got)
	}
}

// TestTenantStateBounded pins the cardinality guard: unbounded
// distinct tenant IDs must not grow the retained per-tenant records
// past the cap, while the global counters stay exact.
func TestTenantStateBounded(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Close()
	const total = tenantStateCap + 100
	for i := 0; i < total; i++ {
		tk, err := s.Submit(nil, fmt.Sprintf("tenant-%d", i), func(worker int, c <-chan struct{}) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if len(st.Tenants) > tenantStateCap {
		t.Fatalf("retained %d tenant records, cap %d", len(st.Tenants), tenantStateCap)
	}
	if st.Completed != total {
		t.Fatalf("completed = %d, want %d (eviction must not touch global counters)", st.Completed, total)
	}
}

func TestConcurrentSubmitStress(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64, TenantQuota: 32})
	defer s.Close()
	var wg sync.WaitGroup
	var accepted, rejected int64
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := string(rune('a' + g%4))
			for i := 0; i < 50; i++ {
				tk, err := s.Submit(nil, tenant, func(worker int, c <-chan struct{}) error { return nil })
				if err != nil {
					if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrTenantQuota) {
						t.Errorf("unexpected submit error: %v", err)
					}
					mu.Lock()
					rejected++
					mu.Unlock()
					continue
				}
				mu.Lock()
				accepted++
				mu.Unlock()
				if err := tk.Wait(); err != nil {
					t.Errorf("job failed: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if int64(st.Completed) != accepted {
		t.Fatalf("completed %d, accepted %d", st.Completed, accepted)
	}
	if int64(st.Rejected) != rejected {
		t.Fatalf("rejected counter %d, observed %d", st.Rejected, rejected)
	}
	if st.Queued != 0 || st.Running != 0 {
		t.Fatalf("scheduler not drained: %+v", st)
	}
}

// TestObserveFeedsTenantModeledTime pins the tenant ledger: modeled
// time and energy reported through Observe accumulate in the tenant's
// record and its tenant.dram_ns / tenant.energy_pj series, reports
// with no modeled time are ignored, and unknown tenants get a fresh
// record.
func TestObserveFeedsTenantModeledTime(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, QueueDepth: 4, Metrics: reg})
	defer s.Close()
	tk, err := s.Submit(nil, "a", func(int, <-chan struct{}) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	s.Observe("a", 1500, 30)
	s.Observe("a", 500, 10)
	s.Observe("a", 0, 7)          // ignored
	s.Observe("a", -10, 7)        // ignored
	s.Observe("phantom", 2000, 5) // never submitted: fresh record
	st := s.Stats()
	for _, c := range []struct {
		tenant          string
		modeled, energy float64
	}{{"a", 2000, 40}, {"phantom", 2000, 5}} {
		ts := st.Tenants[c.tenant]
		if ts.ModeledNs != c.modeled || ts.EnergyPJ != c.energy {
			t.Errorf("tenant %s billed %v ns / %v pJ, want %v / %v", c.tenant, ts.ModeledNs, ts.EnergyPJ, c.modeled, c.energy)
		}
		if got := reg.FloatCounter(obs.TenantSeries("tenant.dram_ns", "tenant", c.tenant)).Value(); got != c.modeled {
			t.Errorf("tenant.dram_ns{tenant=%s} = %v, want %v", c.tenant, got, c.modeled)
		}
		if got := reg.FloatCounter(obs.TenantSeries("tenant.energy_pj", "tenant", c.tenant)).Value(); got != c.energy {
			t.Errorf("tenant.energy_pj{tenant=%s} = %v, want %v", c.tenant, got, c.energy)
		}
	}
}
