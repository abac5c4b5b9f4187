package obs

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestBucketOfMonotone(t *testing.T) {
	vals := []int64{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100, 1000, 1 << 20, 1<<40 + 17, 1<<62 + 99}
	prev := -1
	for _, v := range vals {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotone: bucketOf(%d)=%d < %d", v, b, prev)
		}
		if b < 0 || b >= NumBuckets {
			t.Fatalf("bucketOf(%d)=%d out of range [0,%d)", v, b, NumBuckets)
		}
		prev = b
	}
	if got := bucketOf(-5); got != 0 {
		t.Fatalf("negative values must clamp to bucket 0, got %d", got)
	}
}

func TestBucketMidWithinBucket(t *testing.T) {
	// The representative value of every bucket must map back to the
	// same bucket — otherwise quantiles would report values outside the
	// bucket that contains them.
	for i := 0; i < NumBuckets; i++ {
		mid := bucketMid(i)
		if got := bucketOf(mid); got != i {
			t.Fatalf("bucketOf(bucketMid(%d))=%d, want %d (mid=%d)", i, got, i, mid)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations of 1000ns, 10 of 1_000_000ns: p50 near 1000,
	// p99 still in the low cluster (990/1010 below rank 1000), p999
	// near 1e6. Log buckets have 1/8 relative error; allow 15%.
	for i := 0; i < 1000; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000)
	}
	s := h.Snapshot()
	if s.Count != 1010 {
		t.Fatalf("count = %d, want 1010", s.Count)
	}
	within := func(got, want int64, tol float64) bool {
		d := float64(got - want)
		if d < 0 {
			d = -d
		}
		return d <= tol*float64(want)
	}
	if p50 := s.Quantile(0.50); !within(p50, 1000, 0.15) {
		t.Fatalf("p50 = %d, want ~1000", p50)
	}
	if p999 := s.Quantile(0.999); !within(p999, 1_000_000, 0.15) {
		t.Fatalf("p999 = %d, want ~1e6", p999)
	}
	if mean := s.Mean(); !within(int64(mean), (1000*1000+10*1_000_000)/1010, 0.001) {
		t.Fatalf("mean = %f", mean)
	}
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty snapshot must report zero quantiles and mean")
	}
}

func TestHistogramMergeAssociativity(t *testing.T) {
	// Property test: for random observation sets split into three
	// histograms a, b, c, merge(a, merge(b, c)) == merge(merge(a, b), c)
	// == one histogram observing everything.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var a, b, c, all Histogram
		parts := []*Histogram{&a, &b, &c}
		n := 30 + rng.Intn(300)
		for i := 0; i < n; i++ {
			v := rng.Int63n(1 << uint(1+rng.Intn(40)))
			parts[rng.Intn(3)].Observe(v)
			all.Observe(v)
		}
		sa, sb, sc := a.Snapshot(), b.Snapshot(), c.Snapshot()

		left := sb // b+c first, then a
		left.Merge(sc)
		lhs := sa
		lhs.Merge(left)

		rhs := sa // a+b first, then c
		rhs.Merge(sb)
		rhs.Merge(sc)

		if lhs != rhs {
			t.Fatalf("trial %d: merge not associative", trial)
		}
		if lhs != all.Snapshot() {
			t.Fatalf("trial %d: merged snapshot != direct observation", trial)
		}
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
	// nil receivers must be safe no-ops.
	var nc *Counter
	nc.Add(1)
	nc.Inc()
	if nc.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var ng *Gauge
	ng.Set(9)
	if ng.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	var nh *Histogram
	nh.Observe(5)
	if nh.Snapshot().Count != 0 {
		t.Fatal("nil histogram must snapshot empty")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return same counter")
	}
	r.Counter("a").Add(2)
	r.Gauge("depth").Set(3)
	r.Histogram("lat").Observe(100)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d series, want 3", len(snap))
	}
	byName := map[string]Metric{}
	for _, m := range snap {
		byName[m.Name] = m
	}
	if m := byName["a"]; m.Kind != KindCounter || m.Value != 2 {
		t.Fatalf("counter series wrong: %+v", m)
	}
	if m := byName["depth"]; m.Kind != KindGauge || m.Value != 3 {
		t.Fatalf("gauge series wrong: %+v", m)
	}
	if m := byName["lat"]; m.Kind != KindHistogram || m.Hist == nil || m.Hist.Count != 1 {
		t.Fatalf("histogram series wrong: %+v", m)
	}
	// nil registry: nil series, nil snapshot, no panics.
	var nr *Registry
	nr.Counter("x").Inc()
	nr.Gauge("x").Set(1)
	nr.Histogram("x").Observe(1)
	if nr.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

func TestRegistryOverflowCap(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < maxSeries; i++ {
		r.Counter(fmt.Sprintf("c%d", i))
	}
	over := r.Counter("one-too-many")
	if over == nil {
		t.Fatal("overflow must still return a usable counter")
	}
	over.Inc()
	if r.Counter("another").Value() != 1 {
		t.Fatal("all overflow names must share the overflow series")
	}
	if r.Counter(OverflowSeries) != over {
		t.Fatal("overflow series must be addressable by name")
	}
}

// TestRegistryOverflowPerMetric fills every kind to its cap, then
// requires a new labeled name to land on its own metric's overflow
// series, so two metrics past the cap never share a series, and an
// unlabeled one on OverflowSeries.
func TestRegistryOverflowPerMetric(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < maxSeries; i++ {
		name := TenantSeries("fill", "i", fmt.Sprint(i))
		r.Counter(name)
		r.FloatCounter(name)
		r.Gauge(name)
		r.Histogram(name)
	}
	ns, pj := TenantSeries("tenant.dram_ns", "tenant", "late"), TenantSeries("tenant.energy_pj", "tenant", "late")
	r.FloatCounter(ns).Add(3)
	r.FloatCounter(pj).Add(5)
	r.FloatCounter(TenantSeries("tenant.dram_ns", "tenant", "later")).Add(4)
	if got := r.FloatCounter("tenant.dram_ns{tenant=obs.overflow}").Value(); got != 7 {
		t.Errorf("tenant.dram_ns overflow holds %v, want 7", got)
	}
	if got := r.FloatCounter("tenant.energy_pj{tenant=obs.overflow}").Value(); got != 5 {
		t.Errorf("tenant.energy_pj overflow holds %v, want 5", got)
	}
	two := Labels("b", "k1", "x", "k2", "y")
	if got, want := overflowName(two), "b{k1=obs.overflow,k2=obs.overflow}"; got != want {
		t.Errorf("overflowName(%s) = %s, want %s", two, got, want)
	}
	r.Counter(ns).Inc()
	r.Counter(pj).Add(2)
	r.Gauge(ns).Set(6)
	r.Histogram(ns).Observe(9)
	r.Counter("unlabeled").Inc()
	if got := r.Counter("tenant.dram_ns{tenant=obs.overflow}").Value(); got != 1 {
		t.Errorf("counter overflow holds %d, want 1", got)
	}
	if got := r.Counter("tenant.energy_pj{tenant=obs.overflow}").Value(); got != 2 {
		t.Errorf("counter overflow holds %d, want 2", got)
	}
	if got := r.Gauge("tenant.dram_ns{tenant=obs.overflow}").Value(); got != 6 {
		t.Errorf("gauge overflow holds %d, want 6", got)
	}
	if got := r.Histogram("tenant.dram_ns{tenant=obs.overflow}").Snapshot().Count; got != 1 {
		t.Errorf("histogram overflow holds %d observations, want 1", got)
	}
	if got := r.Counter(OverflowSeries).Value(); got != 1 {
		t.Errorf("an unlabeled name past the cap: %s holds %d, want 1", OverflowSeries, got)
	}
	for _, m := range r.Snapshot() {
		if strings.Contains(m.Name, "late") {
			t.Errorf("series %s was created past the cap", m.Name)
		}
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(0.5, nil)
	sampled := 0
	for i := 0; i < 100; i++ {
		if tt := tr.Start(); tt != nil {
			sampled++
			tr.Finish(tt)
		}
	}
	if sampled != 50 {
		t.Fatalf("sampling 0.5 over 100 jobs traced %d, want 50", sampled)
	}
	off := NewTracer(0, nil)
	if off.everyN > 0 {
		t.Fatal("sampling 0 must disable the tracer")
	}
	if off.Start() != nil {
		t.Fatal("disabled tracer must return nil traces")
	}
	var nilTracer *Tracer
	if nilTracer.Start() != nil {
		t.Fatal("nil tracer must be disabled")
	}
	nilTracer.Finish(nil)
}

func TestTraceSpanTree(t *testing.T) {
	tr := NewTracer(1, nil)
	tt := tr.Start()
	if tt == nil {
		t.Fatal("sampling 1.0 must trace every job")
	}
	q := tt.Begin("queue", 0)
	tt.End(q)
	c := tt.Begin("compile", 0)
	l := tt.Begin("lookup", c)
	tt.End(l)
	tt.End(c)
	e := tt.BeginOn("execute", 0, 3)
	tt.End(e)
	tt.SetErr("boom")
	tt.SetErr("second write must lose")
	tr.Finish(tt)

	spans := tt.Spans()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	if spans[0].Name != "job" || spans[0].Parent != -1 {
		t.Fatalf("root span wrong: %+v", spans[0])
	}
	if spans[0].EndNs == 0 {
		t.Fatal("Finish must close the root span")
	}
	if spans[3].Parent != c || spans[3].Name != "lookup" {
		t.Fatalf("child span wrong: %+v", spans[3])
	}
	if spans[4].Channel != 3 {
		t.Fatalf("channel annotation lost: %+v", spans[4])
	}
	for i, s := range spans[1:] {
		if s.EndNs < s.StartNs {
			t.Fatalf("span %d ends before it starts: %+v", i+1, s)
		}
	}
	if tt.Err() != "boom" {
		t.Fatalf("err = %q, want boom", tt.Err())
	}

	// Nil trace: every method is a silent no-op.
	var nt *Trace
	i := nt.Begin("x", 0)
	if i != -1 {
		t.Fatalf("nil Begin = %d, want -1", i)
	}
	nt.End(i)
	nt.SetErr("x")
	if nt.Spans() != nil || nt.Err() != "" {
		t.Fatal("nil trace must read empty")
	}
	// Bogus indices on a live trace are ignored.
	tt.End(-1)
	tt.End(999)
}

func TestFlightRecorderRings(t *testing.T) {
	r := NewFlightRecorder(3, 2)
	tr := NewTracer(1, r)
	var ids []uint64
	for i := 0; i < 5; i++ {
		tt := tr.Start()
		ids = append(ids, tt.ID)
		tr.Finish(tt)
	}
	got := r.Traces()
	if len(got) != 3 {
		t.Fatalf("ring retained %d traces, want 3", len(got))
	}
	for i, tt := range got {
		if tt.ID != ids[2+i] {
			t.Fatalf("ring order wrong at %d: got ID %d, want %d", i, tt.ID, ids[2+i])
		}
	}
	if r.TraceCount() != 5 {
		t.Fatalf("TraceCount = %d, want 5", r.TraceCount())
	}
	if r.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", r.Depth())
	}

	r.Event("error", "first")
	r.Event("evict", "second")
	r.Event("recompile", "third")
	evs := r.Events()
	if len(evs) != 2 || evs[0].Kind != "evict" || evs[1].Kind != "recompile" {
		t.Fatalf("event ring wrong: %+v", evs)
	}

	r.Reset()
	if len(r.Traces()) != 0 || len(r.Events()) != 0 || r.TraceCount() != 0 {
		t.Fatal("Reset must clear rings and totals")
	}

	// nil recorder: all no-ops.
	var nr *FlightRecorder
	nr.RecordTrace(nil)
	nr.Event("x", "y")
	nr.Eventf("x", "%d", 1)
	if nr.Traces() != nil || nr.Events() != nil || nr.Depth() != 0 {
		t.Fatal("nil recorder must read empty")
	}
}

func TestConcurrentObserve(t *testing.T) {
	// Hammer one histogram + registry from many goroutines; totals must
	// reconcile. Run under -race for the data-race check.
	r := NewRegistry()
	h := r.Histogram("lat")
	c := r.Counter("jobs")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Int63n(1 << 30))
				c.Inc()
			}
		}(int64(w))
	}
	// Concurrent readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := h.Snapshot()
			var n uint64
			for _, b := range s.Counts {
				n += b
			}
			if n != s.Count {
				t.Errorf("torn snapshot: bucket sum %d != count %d", n, s.Count)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("final count = %d, want %d", got, workers*per)
	}
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
}
