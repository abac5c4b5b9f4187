package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Where cancellationRace cancels a job's context.
const (
	cancelBeforeSubmit = iota
	cancelWhileQueued
	cancelAtDispatch
	cancelWhileRunning
	cancelAfterDone
	cancelNever
	numCancelPoints
)

// chanCtx is a cancelable context that is not one of the context
// package's own: context.AfterFunc on it starts a goroutine that lives
// until the registration is stopped or the context is canceled, so a
// registration the scheduler never stops shows up as a leaked
// goroutine.
type chanCtx struct {
	context.Context
	done chan struct{}
	once sync.Once
	err  atomic.Value
}

func newChanCtx() (*chanCtx, context.CancelFunc) {
	c := &chanCtx{Context: context.Background(), done: make(chan struct{})}
	return c, func() {
		c.once.Do(func() {
			c.err.Store(context.Canceled)
			close(c.done)
		})
	}
}

func (c *chanCtx) Done() <-chan struct{} { return c.done }

func (c *chanCtx) Err() error {
	if err, ok := c.err.Load().(error); ok {
		return err
	}
	return nil
}

// TestSeededCancellationRace cancels job contexts at seeded points —
// before submit, while queued, at dispatch, while running, after
// completion — on standard and non-standard cancelable contexts, and
// checks that every ticket resolves exactly once with the error its
// cancel point allows, that the counters add up and drain to zero, and
// that Close leaves no goroutine behind (an AfterFunc registration
// left unstopped on a non-standard context would).
func TestSeededCancellationRace(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { cancellationRace(t, seed) })
	}
}

func cancellationRace(t *testing.T, seed int64) {
	const workers, jobs = 2, 64
	rng := rand.New(rand.NewSource(seed))
	baseline := runtime.NumGoroutine()
	s := New(Config{Workers: workers, QueueDepth: jobs + workers})

	// Gate jobs hold every worker, so the jobs submitted after them (to
	// the same tenant FIFO) stay queued until release closes.
	release := make(chan struct{})
	gates := make([]*Ticket, workers)
	for i := range gates {
		g, err := s.Submit(context.Background(), "race", func(int, <-chan struct{}) error {
			<-release
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		gates[i] = g
	}

	type racer struct {
		point  int
		cancel context.CancelFunc
		t      *Ticket
		runs   atomic.Int32
	}
	errPreempted := errors.New("preempted")
	rs := make([]*racer, jobs)
	defer func() {
		for _, r := range rs {
			if r != nil {
				r.cancel()
			}
		}
	}()
	for i := range rs {
		r := &racer{point: rng.Intn(numCancelPoints)}
		var ctx context.Context
		if rng.Intn(2) == 0 {
			ctx, r.cancel = context.WithCancel(context.Background())
		} else {
			ctx, r.cancel = newChanCtx()
		}
		rs[i] = r
		if r.point == cancelBeforeSubmit {
			r.cancel()
		}
		tk, err := s.Submit(ctx, "race", func(_ int, cancel <-chan struct{}) error {
			r.runs.Add(1)
			switch r.point {
			case cancelWhileRunning:
				// The cancel must be visible on this goroutine at once,
				// whatever GOMAXPROCS is.
				r.cancel()
				select {
				case <-cancel:
					return errPreempted
				default:
					return errors.New("cancel signal still open after the context was canceled")
				}
			case cancelAtDispatch:
				select {
				case <-cancel:
					return errPreempted
				default:
				}
			}
			return nil
		})
		if r.point == cancelBeforeSubmit {
			if !errors.Is(err, context.Canceled) || tk != nil {
				t.Fatalf("job %d: submit with a canceled context: %v, want context.Canceled", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		r.t = tk
	}

	// Every job is still queued behind the gates: a queued cancel must
	// resolve its job without a worker.
	for i, r := range rs {
		if r.point != cancelWhileQueued {
			continue
		}
		r.cancel()
		select {
		case <-r.t.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("job %d: canceled while queued, never resolved", i)
		}
	}
	// Release the workers and race the dispatch-point cancels against
	// them, yielding at seeded points.
	close(release)
	for _, r := range rs {
		if r.point == cancelAtDispatch {
			if rng.Intn(2) == 0 {
				runtime.Gosched()
			}
			r.cancel()
		}
	}

	var completed, failed, canceled uint64
	for i, r := range rs {
		if r.t == nil {
			continue
		}
		err := r.t.Wait()
		if r.point == cancelAfterDone {
			r.cancel()
		}
		runs := r.runs.Load()
		switch {
		case err == nil:
			completed++
		case err == errPreempted:
			failed++
		case errors.Is(err, context.Canceled):
			canceled++
		}
		ok := false
		switch r.point {
		case cancelWhileQueued:
			ok = errors.Is(err, context.Canceled) && runs == 0
		case cancelAtDispatch:
			ok = (errors.Is(err, context.Canceled) && runs == 0) || ((err == nil || err == errPreempted) && runs == 1)
		case cancelWhileRunning:
			ok = err == errPreempted && runs == 1
		case cancelAfterDone, cancelNever:
			ok = err == nil && runs == 1
		}
		if !ok {
			t.Errorf("job %d (cancel point %d): err %v after %d runs", i, r.point, err, runs)
		}
		if again := r.t.Wait(); again != err {
			t.Errorf("job %d resolved twice: %v, then %v", i, err, again)
		}
	}
	for _, g := range gates {
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	completed += workers

	st := s.Stats()
	if st.Completed != completed || st.Failed != failed || st.Canceled != canceled {
		t.Errorf("counters completed/failed/canceled = %d/%d/%d, tickets resolved %d/%d/%d",
			st.Completed, st.Failed, st.Canceled, completed, failed, canceled)
	}
	if st.Submitted != st.Completed+st.Failed+st.Canceled {
		t.Errorf("submitted %d != completed %d + failed %d + canceled %d",
			st.Submitted, st.Completed, st.Failed, st.Canceled)
	}
	ts := st.Tenants["race"]
	if ts.Submitted != st.Submitted || ts.Completed != st.Completed || ts.Failed != st.Failed || ts.Canceled != st.Canceled {
		t.Errorf("tenant counters %+v disagree with the global ones %+v", ts, st)
	}
	if st.Queued != 0 || st.Running != 0 || ts.Queued != 0 || ts.Running != 0 {
		t.Errorf("after every ticket resolved: queued %d running %d (tenant %d/%d), want 0",
			st.Queued, st.Running, ts.Queued, ts.Running)
	}

	s.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
