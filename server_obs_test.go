package simdram

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// obsServer is a testServer with full trace sampling.
func obsServer(t testing.TB, channels int, tune func(*ServerConfig)) *Server {
	t.Helper()
	return testServer(t, channels, func(cfg *ServerConfig) {
		cfg.TraceSampling = 1.0
		if tune != nil {
			tune(cfg)
		}
	})
}

// spanByName returns the first span with the given name, or nil.
func spanByName(jt JobTrace, name string) *TraceSpan {
	for i := range jt.Spans {
		if jt.Spans[i].Name == name {
			return &jt.Spans[i]
		}
	}
	return nil
}

func TestServerTracesEveryJobAtFullSampling(t *testing.T) {
	srv := obsServer(t, 2, nil)
	rng := rand.New(rand.NewSource(11))
	const jobs = 6
	ids := map[uint64]bool{}
	cacheHit := map[uint64]bool{}
	for i := 0; i < jobs; i++ {
		a, b := randData(rng, 64, 8), randData(rng, 64, 8)
		fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "t1"}, Input(a, 8).Add(Input(b, 8)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.TraceID == 0 {
			t.Fatalf("job %d: sampling 1.0 must assign a trace ID", i)
		}
		if ids[res.TraceID] {
			t.Fatalf("duplicate trace ID %d", res.TraceID)
		}
		ids[res.TraceID] = true
		cacheHit[res.TraceID] = res.Compile.CacheHit
	}

	traces := srv.Traces()
	if len(traces) != jobs {
		t.Fatalf("recorder has %d traces, want %d", len(traces), jobs)
	}
	replays := 0
	for _, jt := range traces {
		if !ids[jt.ID] {
			t.Fatalf("trace %d does not match any JobResult.TraceID", jt.ID)
		}
		if jt.Err != "" {
			t.Fatalf("trace %d reports error %q for a successful job", jt.ID, jt.Err)
		}
		// Structural checks: root is "job"; every expected stage is
		// present, closed, nested under a valid parent, and inside its
		// parent's window.
		if len(jt.Spans) == 0 || jt.Spans[0].Name != "job" || jt.Spans[0].Parent != -1 {
			t.Fatalf("trace %d: bad root: %+v", jt.ID, jt.Spans)
		}
		// A job that replays its channel's memoized prepared program
		// resolves nothing; only a plan-cache hit can replay.
		names := []string{"admit", "queue", "compile", "cache-lookup", "lower", "prepare", "execute", "run", "gather"}
		if spanByName(jt, "resolve") != nil || !cacheHit[jt.ID] {
			names = append(names, "resolve")
		} else {
			replays++
		}
		for _, name := range names {
			sp := spanByName(jt, name)
			if sp == nil {
				t.Fatalf("trace %d: missing span %q (have %+v)", jt.ID, name, jt.Spans)
			}
			if sp.EndNs < sp.StartNs {
				t.Fatalf("trace %d: span %q never closed: %+v", jt.ID, name, sp)
			}
			if sp.Parent < 0 || sp.Parent >= len(jt.Spans) {
				t.Fatalf("trace %d: span %q has bad parent %d", jt.ID, name, sp.Parent)
			}
			par := jt.Spans[sp.Parent]
			if sp.StartNs < par.StartNs || sp.EndNs > par.EndNs {
				t.Fatalf("trace %d: span %q [%d,%d] outside parent %q [%d,%d]",
					jt.ID, name, sp.StartNs, sp.EndNs, par.Name, par.StartNs, par.EndNs)
			}
		}
		// Admission (the IR build) and the compile that prices the job
		// are children of the job span that end before the job is
		// queued, in that order.
		ad, cp, q := spanByName(jt, "admit"), spanByName(jt, "compile"), spanByName(jt, "queue")
		if ad.Parent != 0 || cp.Parent != 0 || ad.EndNs > cp.StartNs || cp.EndNs > q.StartNs {
			t.Fatalf("trace %d: admit %+v and compile %+v must be children of job that end before queue %+v", jt.ID, ad, cp, q)
		}
		// Channel-bound stages carry the channel that ran the job.
		ex := spanByName(jt, "execute")
		if ex.Channel < 0 || ex.Channel >= 2 {
			t.Fatalf("trace %d: execute channel %d out of range", jt.ID, ex.Channel)
		}
		if run := spanByName(jt, "run"); run.Channel != ex.Channel {
			t.Fatalf("trace %d: run channel %d != execute channel %d", jt.ID, run.Channel, ex.Channel)
		}
	}
	// Six jobs of one shape on two channels leave some channel three
	// plan-cache hits, and the third replays the program the second
	// prepared.
	if replays == 0 {
		t.Fatalf("no job replayed a memoized prepared program")
	}
}

func TestServerSpanDurationsMatchLatencySplit(t *testing.T) {
	// The acceptance criterion: a traced job's top-level span durations
	// must sum (within tolerance) to the job's reported latency split
	// (QueueNs + RunNs). Queue is measured by both clocks with
	// microseconds of skew; the top-level pipeline spans (lower,
	// prepare, execute, gather) tile the worker's run window. Admission
	// and the compile precede the ticket, so they are not part of it.
	srv := obsServer(t, 1, nil)
	rng := rand.New(rand.NewSource(5))
	a, b := randData(rng, 256, 8), randData(rng, 256, 8)
	fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "t1"}, Input(a, 8).Mul(Input(b, 8)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var jt *JobTrace
	for _, tr := range srv.Traces() {
		if tr.ID == res.TraceID {
			jt = &tr
			break
		}
	}
	if jt == nil {
		t.Fatalf("trace %d not in recorder", res.TraceID)
	}
	var sum int64
	for _, name := range []string{"queue", "lower", "prepare", "execute", "gather"} {
		sp := spanByName(*jt, name)
		if sp == nil {
			t.Fatalf("missing span %q", name)
		}
		sum += sp.DurNs()
	}
	total := res.QueueNs + res.RunNs
	// The spans cannot cover more than the job, and must cover most of
	// it: the uncovered remainder is scheduler bookkeeping between
	// span boundaries (clock handoff, closure dispatch), bounded here
	// at 20% or 200µs, whichever is larger.
	slack := total / 5
	if slack < 200_000 {
		slack = 200_000
	}
	if sum > total+slack {
		t.Fatalf("span sum %dns exceeds job latency %dns (+slack %d)", sum, total, slack)
	}
	if sum < total-slack {
		t.Fatalf("span sum %dns covers too little of job latency %dns (-slack %d)", sum, total, slack)
	}
}

// TestServerQueueSpanIsQueueNs pins the queue span to the scheduler's
// own measurement: for lazy and raw jobs alike, including jobs that
// wait behind others on a single channel, the span covers exactly the
// admission-to-dispatch interval JobResult.QueueNs reports.
func TestServerQueueSpanIsQueueNs(t *testing.T) {
	srv := obsServer(t, 1, nil)
	rng := rand.New(rand.NewSource(9))
	var futs []*Future
	for i := 0; i < 8; i++ {
		var fut *Future
		var err error
		if i%2 == 0 {
			a, b := randData(rng, 256, 8), randData(rng, 256, 8)
			fut, err = srv.SubmitJob(context.Background(), JobSpec{Tenant: "t1"}, Input(a, 8).Add(Input(b, 8)))
		} else {
			fut, err = srv.SubmitFn(context.Background(), JobSpec{Tenant: "t2"}, func(*System, <-chan struct{}) error { return nil })
		}
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	traces := map[uint64]JobTrace{}
	for _, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for _, jt := range srv.Traces() {
		traces[jt.ID] = jt
	}
	for i, fut := range futs {
		res, _ := fut.Wait()
		jt, ok := traces[res.TraceID]
		if !ok {
			t.Fatalf("job %d: trace %d not in recorder", i, res.TraceID)
		}
		sp := spanByName(jt, "queue")
		if sp == nil {
			t.Fatalf("job %d: no queue span", i)
		}
		if sp.DurNs() != res.QueueNs {
			t.Errorf("job %d: queue span %dns, QueueNs %dns", i, sp.DurNs(), res.QueueNs)
		}
	}
}

// TestServerAdmissionTracing checks the admission edge of tracing: a
// submission rejected at admission records no trace, even though its
// trace opened before pricing, and a malformed job — admitted at
// price 0, since it runs nothing — fails its future with the
// compiler's error.
func TestServerAdmissionTracing(t *testing.T) {
	srv := obsServer(t, 1, nil)
	rng := rand.New(rand.NewSource(3))
	e := Input(randData(rng, 64, 8), 8).Add(Scalar(1, 8))
	_, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "t1", Deadline: time.Now().Add(time.Nanosecond)}, e)
	if !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("1ns deadline: %v, want ErrDeadlineInfeasible", err)
	}
	if got := srv.Traces(); len(got) != 0 {
		t.Fatalf("a rejected submission recorded %d traces", len(got))
	}

	bad := Input(randData(rng, 64, 8), 8).Add(Input(randData(rng, 32, 8), 8))
	fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "t1"}, bad)
	if err != nil {
		t.Fatalf("a malformed job must be admitted: %v", err)
	}
	if fut.res.Admission.ModeledNs != 0 {
		t.Fatalf("malformed job priced at %vns", fut.res.Admission.ModeledNs)
	}
	_, err = fut.Wait()
	if err == nil || !strings.Contains(err.Error(), "data leaf has 32 elements, expression has 64") {
		t.Fatalf("malformed job: %v, want the compiler's element-count error", err)
	}
	traces := srv.Traces()
	if len(traces) != 1 || traces[0].Err == "" || spanByName(traces[0], "admit") == nil {
		t.Fatalf("the failed job must record one errored trace with an admit span: %+v", traces)
	}
}

func TestServerTracingDisabledByDefault(t *testing.T) {
	srv := testServer(t, 1, nil)
	fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "t1"}, Input([]uint64{1, 2, 3}, 8).Add(Scalar(1, 8)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != 0 {
		t.Fatal("tracing off by default: no trace ID expected")
	}
	if got := srv.Traces(); len(got) != 0 {
		t.Fatalf("recorder must stay empty with tracing disabled, has %d", len(got))
	}
}

func TestServerEventsAndResetTraces(t *testing.T) {
	srv := obsServer(t, 1, nil)
	// A failing job (element-count mismatch discovered at compile)
	// must land in the event ring.
	bad := Input([]uint64{1, 2, 3}, 8).Add(Input([]uint64{1, 2}, 8))
	fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "t-bad"}, bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err == nil {
		t.Fatal("mismatched element counts must fail")
	}
	evs := srv.Events()
	if len(evs) == 0 || evs[len(evs)-1].Kind != "error" {
		t.Fatalf("expected an error event, have %+v", evs)
	}
	if _, total, depth := srv.TraceRing(); total != 1 || depth != 64 {
		t.Fatalf("trace ring: total=%d depth=%d, want 1 and 64", total, depth)
	}
	srv.ResetTraces()
	if len(srv.Events()) != 0 || len(srv.Traces()) != 0 {
		t.Fatal("ResetTraces must clear both rings")
	}
}

func TestServerMetricsAndTenantQuantiles(t *testing.T) {
	srv := obsServer(t, 2, nil)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		a := randData(rng, 64, 8)
		fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "tq"}, Input(a, 8).Add(Scalar(3, 8)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	ts, ok := srv.Stats().Tenants["tq"]
	if !ok {
		t.Fatal("tenant missing from stats")
	}
	if ts.RunP50Ns <= 0 || ts.RunP99Ns < ts.RunP50Ns || ts.RunP999Ns < ts.RunP99Ns {
		t.Fatalf("run quantiles not monotone/positive: %+v", ts)
	}
	if ts.QueueP99Ns < ts.QueueP50Ns {
		t.Fatalf("queue quantiles not monotone: %+v", ts)
	}

	points := srv.Metrics()
	byName := map[string]MetricPoint{}
	for _, p := range points {
		byName[p.Name] = p
	}
	if p := byName["sched.completed"]; p.Kind != "counter" || p.Value != 8 {
		t.Fatalf("sched.completed = %+v, want counter 8", p)
	}
	if p := byName["sched.run_ns{tenant=tq}"]; p.Kind != "histogram" || p.Value != 8 || p.P50 <= 0 {
		t.Fatalf("per-tenant run histogram wrong: %+v", p)
	}
	// Served jobs run on the channels' Systems, never as sharded
	// cluster batches, so no cluster.* series is exported.
	for name := range byName {
		if strings.HasPrefix(name, "cluster.") {
			t.Fatalf("server exports cluster series %s", name)
		}
	}
}

func TestServerDebugHandler(t *testing.T) {
	srv := obsServer(t, 1, nil)
	fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "t1"}, Input([]uint64{4, 5, 6}, 8).Add(Scalar(1, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	// A failing job puts an "error" incident in the event ring, so the
	// document carries at least one event whose keys can be pinned.
	bad := Input([]uint64{1, 2, 3}, 8).Add(Input([]uint64{1, 2}, 8))
	fut, err = srv.SubmitJob(context.Background(), JobSpec{Tenant: "t-bad"}, bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err == nil {
		t.Fatal("mismatched element counts must fail")
	}
	rr := httptest.NewRecorder()
	srv.DebugHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/simdram", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var doc struct {
		Stats   ServerStats   `json:"stats"`
		Metrics []MetricPoint `json:"metrics"`
		Traces  []JobTrace    `json:"traces"`
		Events  []ObsEvent    `json:"events"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Stats.Completed != 1 || len(doc.Traces) != 2 || len(doc.Metrics) == 0 {
		t.Fatalf("debug doc incomplete: stats=%+v traces=%d metrics=%d",
			doc.Stats, len(doc.Traces), len(doc.Metrics))
	}
	if doc.Traces[0].Spans[0].Name != "job" {
		t.Fatalf("trace root lost in JSON round-trip: %+v", doc.Traces[0])
	}
	if len(doc.Stats.Device) != doc.Stats.Channels || doc.Stats.Device[0].Commands == 0 {
		t.Fatalf("debug stats lack the channel view: %+v", doc.Stats.Device)
	}

	// The wire keys are the endpoint's contract: decode without the Go
	// types so a renamed or dropped JSON tag fails here.
	var raw struct {
		Traces []struct {
			Spans []map[string]any `json:"spans"`
		} `json:"traces"`
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &raw); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	wantKeys := func(what string, obj map[string]any, want ...string) {
		t.Helper()
		got := make([]string, 0, len(obj))
		for k := range obj {
			got = append(got, k)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s keys %v, want %v", what, got, want)
		}
	}
	spans := 0
	for _, tr := range raw.Traces {
		for _, sp := range tr.Spans {
			wantKeys("span", sp, "name", "parent", "channel", "start_ns", "end_ns")
			spans++
		}
	}
	if spans == 0 || len(raw.Events) == 0 {
		t.Fatalf("debug doc has %d spans and %d events, want both nonzero", spans, len(raw.Events))
	}
	for _, ev := range raw.Events {
		wantKeys("event", ev, "at_unix_ns", "kind", "detail")
	}
}

func TestServerStatsConsistentUnderConcurrency(t *testing.T) {
	// Satellite: Stats() snapshot consistency under concurrent
	// Submit/Stats/Close (run with -race). Counters must stay monotone
	// across snapshots, resolved jobs never exceed submissions, and
	// tenant maps must never be torn (every snapshot's per-tenant
	// counters are internally coherent).
	srv := obsServer(t, 2, func(cfg *ServerConfig) {
		cfg.QueueDepth = 64
	})
	const submitters, perSubmitter = 4, 25
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Stats readers race with submitters and verify monotonicity. The
	// reader has its own completion channel: it must keep reading until
	// the workers AND Close are done, so it cannot share their group.
	var readerErr error
	var readerMu sync.Mutex
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var lastSubmitted, lastResolved uint64
		for {
			st := srv.Stats()
			resolved := st.Completed + st.Failed + st.Canceled
			readerMu.Lock()
			switch {
			case st.Submitted < lastSubmitted:
				readerErr = fmt.Errorf("Submitted went backwards: %d -> %d", lastSubmitted, st.Submitted)
			case resolved < lastResolved:
				readerErr = fmt.Errorf("resolved went backwards: %d -> %d", lastResolved, resolved)
			case resolved > st.Submitted:
				readerErr = fmt.Errorf("resolved %d > submitted %d", resolved, st.Submitted)
			}
			bad := readerErr != nil
			readerMu.Unlock()
			if bad {
				return
			}
			lastSubmitted, lastResolved = st.Submitted, resolved
			var tenantTotal uint64
			for name, ts := range st.Tenants {
				if ts.Completed+ts.Failed+ts.Canceled > ts.Submitted {
					readerMu.Lock()
					readerErr = fmt.Errorf("tenant %s torn: %+v", name, ts)
					readerMu.Unlock()
					return
				}
				tenantTotal += ts.Submitted
			}
			if tenantTotal > st.Submitted {
				readerMu.Lock()
				readerErr = fmt.Errorf("tenant submitted sum %d > global %d", tenantTotal, st.Submitted)
				readerMu.Unlock()
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			tenant := fmt.Sprintf("t%d", w%3)
			for i := 0; i < perSubmitter; i++ {
				a := randData(rng, 32, 8)
				fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: tenant}, Input(a, 8).Add(Scalar(uint64(i), 8)))
				if err != nil {
					// Admission rejections and a closing server are the
					// expected overload outcomes; anything else is a bug.
					if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrTenantQuota) && !errors.Is(err, ErrServerClosed) {
						t.Errorf("submit: %v", err)
					}
					continue
				}
				if _, err := fut.Wait(); err != nil && !errors.Is(err, ErrServerClosed) {
					t.Errorf("wait: %v", err)
				}
			}
		}(w)
	}
	// Close concurrently with the last submissions: queued jobs drain
	// with ErrServerClosed, counters must still reconcile.
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Close()
	}()
	wg.Wait()
	close(stop)
	<-readerDone

	readerMu.Lock()
	defer readerMu.Unlock()
	if readerErr != nil {
		t.Fatal(readerErr)
	}
	st := srv.Stats()
	if st.Completed+st.Failed+st.Canceled != st.Submitted {
		t.Fatalf("final counters do not reconcile: %+v", st)
	}
}
