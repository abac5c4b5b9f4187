package obs

import (
	"testing"

	"simdram/internal/raceflag"
)

// These gates pin the hot-path contract the serving layer depends on:
// recording a metric and running with tracing disabled must not touch
// the heap. Run in the dedicated non-race CI step; the race detector
// allocates on its own, so they skip under -race.

func TestObserveZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc gate skipped under -race")
	}
	var h Histogram
	var c Counter
	var g Gauge
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
		c.Inc()
		g.Set(1)
	}); n != 0 {
		t.Fatalf("metric updates allocate %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		_ = h.Snapshot().Quantile(0.99)
	}); n != 0 {
		t.Fatalf("snapshot+quantile allocates %v per run, want 0", n)
	}
}

func TestDisabledTracingZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc gate skipped under -race")
	}
	off := NewTracer(0, nil)
	if n := testing.AllocsPerRun(1000, func() {
		tr := off.Start()
		i := tr.Begin("compile", 0)
		j := tr.BeginOn("run", i, 2)
		tr.End(j)
		tr.End(i)
		tr.SetErr("")
		off.Finish(tr)
	}); n != 0 {
		t.Fatalf("disabled tracing allocates %v per run, want 0", n)
	}
	// Unsampled jobs on an enabled tracer are just as free.
	half := NewTracer(0.001, nil)
	half.Start() // consume until the pattern is mid-cycle
	if n := testing.AllocsPerRun(100, func() {
		if tr := half.Start(); tr == nil {
			_ = tr
		}
	}); n > 0.2 {
		t.Fatalf("unsampled Start allocates %v per run, want ~0", n)
	}
}

// TestEventKeyZeroAlloc pins EventKey, which the plan cache's eviction
// hook calls under the cache's lock, at zero allocations, and its
// detail, formatted when Events reads the ring, at what Eventf gives.
func TestEventKeyZeroAlloc(t *testing.T) {
	const format = "plan evicted after %d hits (key %.24q…)"
	key := "lanes=256;add(in0:8,in1:8)->sat8"
	r := NewFlightRecorder(1, 4)
	if !raceflag.Enabled {
		if n := testing.AllocsPerRun(100, func() { r.EventKey("evict", format, 7, key) }); n != 0 {
			t.Fatalf("EventKey allocates %v per run, want 0", n)
		}
	}
	r.EventKey("evict", format, 7, key)
	r.Eventf("evict", format, uint64(7), key)
	evs := r.Events()
	n := len(evs)
	if n < 2 || evs[n-2].Detail != evs[n-1].Detail || evs[n-2].Kind != "evict" {
		t.Fatalf("event ring %+v: want an EventKey event, then an equal Eventf one", evs)
	}
}
