package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// jobFn runs client c's next closed-loop job and returns the latency
// of the program call alone (submit to result, without the benchmark's
// own checking) and the job's modeled DRAM critical path.
type jobFn func(c int) (lat time.Duration, modeledNs float64, err error)

// sliceLen is the length of the slices a measured window is cut into.
// The window reports medians over its slices, so a burst of host
// interference spoils a few slices instead of the whole run.
const sliceLen = 500 * time.Millisecond

// window is what one measured stretch of closed-loop jobs produced.
// raw and cal are medians over the window's slices, cal with each
// slice's host time rescaled to the reference host speed (see
// calibrate); rssMB is the median of the resident set sampled once per
// slice.
type window struct {
	jobs                int
	lats                []time.Duration // every job's latency, sorted
	raw, cal            sliceStats
	speed               float64 // median host-speed factor
	rssMB               float64
	mallocs, allocBytes uint64
	gcs                 uint32
}

// sliceStats are one slice's (or their medians') jobs per second of
// program time, modeled DRAM-ns per host-ns, and latency quantiles in
// milliseconds.
type sliceStats struct {
	rate, simRate, p50, p90 float64
}

// runWindow runs clients closed loops — each sends its next job only
// after the previous one returned — until d has passed or, when
// perClient is positive, each client has run perClient jobs. Every
// sliceLen the clients pause between jobs while the calibration bundle
// runs; the jobs between two calibrations form one slice, timed
// against the mean of the two. A slice's throughput is the sum of the
// clients' rates, each its job count over its summed latencies, so the
// benchmark's own checking and the pauses never count against the
// program.
func runWindow(clients int, d time.Duration, perClient int, job jobFn) (window, error) {
	type done struct {
		slice     int
		lat       time.Duration
		modeledNs float64
	}
	runs := make([][]done, clients)
	errs := make([]error, clients)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	// gate lets clients run jobs (read side) or the calibrator run the
	// bundle on an otherwise idle program (write side); slice only
	// changes under the write side.
	var gate sync.RWMutex
	slice := 0
	speeds := []float64{calibrate()}
	var rss []float64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				rss = append(rss, procStatusMB("VmRSS:"))
				gate.Lock()
				speeds = append(speeds, calibrate())
				slice++
				gate.Unlock()
			}
		}
	}()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range runs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runs[c] = make([]done, 0, 1<<14)
			for k := 0; (perClient <= 0 || k < perClient) && time.Now().Before(deadline); k++ {
				gate.RLock()
				s := slice
				lat, ns, err := job(c)
				gate.RUnlock()
				if err != nil {
					errs[c] = err
					return
				}
				runs[c] = append(runs[c], done{s, lat, ns})
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-stopped
	runtime.ReadMemStats(&after)
	for _, err := range errs {
		if err != nil {
			return window{}, err
		}
	}
	w := window{
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcs:        after.NumGC - before.NumGC,
	}
	type acc struct {
		n         []int
		busy      []time.Duration
		modeledNs []float64
		lats      []time.Duration
	}
	accs := make([]acc, len(speeds))
	for i := range accs {
		accs[i] = acc{n: make([]int, clients), busy: make([]time.Duration, clients), modeledNs: make([]float64, clients)}
	}
	for c, ds := range runs {
		for _, j := range ds {
			a := &accs[j.slice]
			a.n[c]++
			a.busy[c] += j.lat
			a.modeledNs[c] += j.modeledNs
			a.lats = append(a.lats, j.lat)
			w.lats = append(w.lats, j.lat)
		}
	}
	w.jobs = len(w.lats)
	if w.jobs == 0 {
		return w, nil
	}
	var raw, cal []sliceStats
	var factors []float64
	for i, a := range accs {
		if len(a.lats) == 0 {
			continue
		}
		f := speeds[i]
		if i+1 < len(speeds) {
			f = (f + speeds[i+1]) / 2
		}
		var st sliceStats
		for c := range a.n {
			if a.n[c] > 0 {
				st.rate += float64(a.n[c]) / a.busy[c].Seconds()
				st.simRate += a.modeledNs[c] / float64(a.busy[c].Nanoseconds())
			}
		}
		sortDurations(a.lats)
		st.p50, st.p90 = quantile(a.lats, 0.5), quantile(a.lats, 0.9)
		raw = append(raw, st)
		cal = append(cal, sliceStats{st.rate * f, st.simRate * f, st.p50 / f, st.p90 / f})
		factors = append(factors, f)
	}
	sortDurations(w.lats)
	w.raw, w.cal, w.speed = medians(raw), medians(cal), median(factors)
	if len(rss) == 0 {
		rss = append(rss, procStatusMB("VmRSS:"))
	}
	w.rssMB = median(rss)
	return w, nil
}

// medians takes each field's median over the slices.
func medians(ss []sliceStats) sliceStats {
	field := func(get func(sliceStats) float64) float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = get(s)
		}
		return median(xs)
	}
	return sliceStats{
		rate:    field(func(s sliceStats) float64 { return s.rate }),
		simRate: field(func(s sliceStats) float64 { return s.simRate }),
		p50:     field(func(s sliceStats) float64 { return s.p50 }),
		p90:     field(func(s sliceStats) float64 { return s.p90 }),
	}
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// quantile returns the q-quantile of sorted latencies in milliseconds
// (nearest rank).
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i].Nanoseconds()) / 1e6
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// procStatusMB reads a memory field of /proc/self/status, such as
// VmRSS (resident set) or VmHWM (its peak), in MB. Where the file does
// not exist it falls back to the memory the Go runtime holds from the
// OS.
func procStatusMB(field string) float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, field); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys-ms.HeapReleased) / (1 << 20)
}
