// Package obs is the serving stack's observability substrate: a
// metrics registry of counters, gauges, and fixed-bucket log-scale
// histograms (alloc-free Observe on the hot path, mergeable
// snapshots), a sampling-gated span tracer that records one span tree
// per served job, and a flight recorder holding the most recent
// completed traces and notable events (errors, evictions, recompiles).
//
// Everything is designed around two constraints of the serving hot
// path: recording a measurement must not allocate (histograms are
// fixed atomic arrays, disabled tracing is a nil pointer whose methods
// no-op), and reading must not perturb writers (snapshots copy under
// short critical sections; quantiles are computed on the snapshot).
package obs

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is
// ready to use; all methods are safe for concurrent use and nil-safe
// (a nil counter drops the update), so call sites never need a guard.
//
//simdram:nilsafe
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
//
//simdram:zeroalloc
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// FloatCounter is a monotonically increasing float64 — the counter for
// quantities the timing and energy models report as floats (modeled
// nanoseconds, picojoules). Add is a lock-free CAS loop on the bit
// pattern; like Counter it is nil-safe, so optional attribution sinks
// never need call-site guards.
//
//simdram:nilsafe
type FloatCounter struct{ bits atomic.Uint64 }

// Add increments the counter by v (non-positive deltas are dropped —
// the series is monotonic by contract).
//
//simdram:zeroalloc
func (c *FloatCounter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Value returns the accumulated total (0 for a nil counter).
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an instantaneous signed level (queue depth, running jobs).
// The zero value is ready to use; methods are concurrency- and
// nil-safe.
//
//simdram:nilsafe
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge's current level.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram layout: values land in log-scale buckets with 4 linear
// sub-buckets per power of two, so the relative quantile error is
// bounded at 1/8 across the whole int64 range. Values 0..3 get exact
// unit buckets.
const (
	histSubBits = 2 // sub-buckets per octave = 1<<histSubBits
	histSubs    = 1 << histSubBits
	// NumBuckets is the fixed bucket count of every Histogram: 4 exact
	// unit buckets plus 4 sub-buckets for each octave 2..62 (the top
	// octave of a non-negative int64).
	NumBuckets = histSubs + (62-histSubBits+1)*histSubs
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSubs {
		return int(u)
	}
	o := uint(bits.Len64(u)) - 1 // octave: position of the top bit, >= histSubBits
	sub := (u >> (o - histSubBits)) & (histSubs - 1)
	return histSubs + int(o-histSubBits)*histSubs + int(sub)
}

// bucketMid returns a representative value for a bucket: the geometric
// middle of its range, so quantiles land inside the bucket that
// contains them with bounded relative error.
func bucketMid(i int) int64 {
	if i < histSubs {
		return int64(i)
	}
	g := i - histSubs
	o := uint(g/histSubs) + histSubBits
	sub := uint64(g % histSubs)
	lo := uint64(1)<<o | sub<<(o-histSubBits)
	width := uint64(1) << (o - histSubBits)
	return int64(lo + width/2)
}

// Histogram is a fixed-bucket log-scale distribution. Observe is
// wait-free, allocation-free, and nil-safe — the serving hot path
// records latencies into it with zero overhead beyond a few atomic
// adds. The zero value is ready to use.
//
//simdram:nilsafe
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
}

// Observe records one value (negative values clamp to zero).
//
//simdram:zeroalloc
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot copies the histogram's current state. Concurrent Observes
// may straddle the copy (a bucket counted but not yet the total); the
// snapshot normalizes by recomputing the total from the buckets, so
// Count always equals the sum of Counts.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	var s HistSnapshot
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram — a plain value
// that merges associatively, so per-channel or per-shard histograms
// aggregate into fleet-wide ones in any grouping order.
type HistSnapshot struct {
	Counts [NumBuckets]uint64
	Count  uint64
	Sum    int64
}

// Merge folds o into s bucket-wise. Merging is commutative and
// associative: merge(a, merge(b, c)) == merge(merge(a, b), c).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Sub returns s minus o bucket-wise — the distribution of observations
// that happened between two cumulative snapshots of the same histogram
// (the windowed view a trailing-window SLO evaluates). Buckets that
// would go negative (o is not actually an earlier snapshot of s) clamp
// to zero, and Count is recomputed from the clamped buckets so the
// invariant Count == sum(Counts) holds on the result.
func (s HistSnapshot) Sub(o HistSnapshot) HistSnapshot {
	var out HistSnapshot
	for i := range s.Counts {
		if s.Counts[i] > o.Counts[i] {
			out.Counts[i] = s.Counts[i] - o.Counts[i]
		}
		out.Count += out.Counts[i]
	}
	if s.Sum > o.Sum {
		out.Sum = s.Sum - o.Sum
	}
	return out
}

// FractionAbove returns the fraction of observations strictly above v
// — the "bad events" numerator of an SLO burn rate. Resolution is the
// histogram's bucket width: a bucket counts as above v when its
// representative value (bucketMid) exceeds v. Returns 0 when empty.
func (s HistSnapshot) FractionAbove(v int64) float64 {
	if s.Count == 0 {
		return 0
	}
	var above uint64
	for i, c := range s.Counts {
		if c != 0 && bucketMid(i) > v {
			above += c
		}
	}
	return float64(above) / float64(s.Count)
}

// Quantile returns the value at quantile q in [0, 1] (0 when the
// histogram is empty). The result is the representative value of the
// bucket containing the q-th observation, so relative error is bounded
// by the bucket width (1/8 above value 4).
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based.
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(NumBuckets - 1)
}

// Mean returns the exact arithmetic mean of the observed values (0
// when empty) — Sum is tracked exactly, unlike the bucketed quantiles.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Kind labels a registry series.
type Kind uint8

// Registry series kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// Metric is one series in a registry snapshot.
type Metric struct {
	Name string
	Kind Kind
	// Value is the counter count or gauge level; for histograms it is
	// the observation count (the distribution itself is in Hist).
	Value float64
	// Hist is the histogram's snapshot (nil for counters and gauges).
	Hist *HistSnapshot
}

// maxSeries bounds how many distinct series of one kind a registry
// creates by name: beyond it, a new name lands on its overflow series
// (see overflowName), so unbounded label cardinality (a tenant ID per
// request) cannot grow the registry without bound.
const maxSeries = 8192

// OverflowSeries is the label value of an overflow series, and the
// whole name of the one an unlabeled name lands on once a registry is
// at capacity.
const OverflowSeries = "obs.overflow"

// overflowName returns the series name lands on past maxSeries: name
// with every label value replaced by OverflowSeries, so each metric
// keeps an overflow series of its own and values of different units
// never add (tenant.dram_ns{tenant=T} lands on
// tenant.dram_ns{tenant=obs.overflow}); a name with no labels lands on
// OverflowSeries itself. Overflow series are few, one per base name
// and label-key set, and are not counted against the cap.
func overflowName(name string) string {
	base, labels := ParseSeries(name)
	if labels == nil {
		return OverflowSeries
	}
	kv := make([]string, 0, 2*len(labels))
	for _, l := range labels {
		kv = append(kv, l[0], OverflowSeries)
	}
	return Labels(base, kv...)
}

// series returns the named series of one kind's map, creating it if
// absent; past maxSeries a new name lands on its overflow series.
func series[T any](m map[string]*T, name string) *T {
	if s, ok := m[name]; ok {
		return s
	}
	if len(m) >= maxSeries {
		name = overflowName(name)
		if s, ok := m[name]; ok {
			return s
		}
	}
	s := new(T)
	m[name] = s
	return s
}

// Registry is a named collection of metrics. Lookups are get-or-create
// and intended for setup paths (hold the returned pointer on the hot
// path); Snapshot returns every series sorted by name.
//
//simdram:nilsafe
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	fcounters map[string]*FloatCounter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  map[string]*Counter{},
		fcounters: map[string]*FloatCounter{},
		gauges:    map[string]*Gauge{},
		hists:     map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it if absent. A nil
// registry returns nil (whose methods no-op), so optional metrics
// never need call-site guards.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return series(r.counters, name)
}

// FloatCounter returns the named float counter, creating it if absent
// (nil from a nil registry). Past maxSeries, new names land on their
// overflow series, as counters' do.
func (r *Registry) FloatCounter(name string) *FloatCounter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return series(r.fcounters, name)
}

// Gauge returns the named gauge, creating it if absent (nil from a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return series(r.gauges, name)
}

// Histogram returns the named histogram, creating it if absent (nil
// from a nil registry).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return series(r.hists, name)
}

// Snapshot returns every series, sorted by name within each kind
// (counters, then gauges, then histograms). A nil registry returns nil.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	fcounters := make(map[string]*FloatCounter, len(r.fcounters))
	for k, v := range r.fcounters {
		fcounters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	out := make([]Metric, 0, len(counters)+len(fcounters)+len(gauges)+len(hists))
	for name, c := range counters {
		out = append(out, Metric{Name: name, Kind: KindCounter, Value: float64(c.Value())})
	}
	for name, c := range fcounters {
		out = append(out, Metric{Name: name, Kind: KindCounter, Value: c.Value()})
	}
	for name, g := range gauges {
		out = append(out, Metric{Name: name, Kind: KindGauge, Value: float64(g.Value())})
	}
	for name, h := range hists {
		s := h.Snapshot()
		out = append(out, Metric{Name: name, Kind: KindHistogram, Value: float64(s.Count), Hist: &s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TenantSeries renders the conventional per-label series name,
// base{label=value} — one place defines the format the debug surfaces
// parse.
func TenantSeries(base, label, value string) string {
	return base + "{" + label + "=" + value + "}"
}

// Labels renders a multi-label series name, base{k1=v1,k2=v2,...},
// from alternating key/value arguments. Callers pass keys in sorted
// order so equal label sets always produce equal series names. An odd
// trailing key is ignored; zero pairs return base unchanged.
func Labels(base string, kv ...string) string {
	if len(kv) < 2 {
		return base
	}
	s := base + "{"
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			s += ","
		}
		s += kv[i] + "=" + kv[i+1]
	}
	return s + "}"
}

// ParseSeries splits a registry series name into its base and its
// label pairs — the inverse of TenantSeries/Labels, used by exposition
// surfaces that re-render labels in another syntax. A name with no
// label block returns (name, nil).
func ParseSeries(name string) (base string, labels [][2]string) {
	open := strings.IndexByte(name, '{')
	if open < 0 || name[len(name)-1] != '}' {
		return name, nil
	}
	base = name[:open]
	body := name[open+1 : len(name)-1]
	for len(body) > 0 {
		pair := body
		if j := strings.IndexByte(body, ','); j >= 0 {
			pair, body = body[:j], body[j+1:]
		} else {
			body = ""
		}
		if k := strings.IndexByte(pair, '='); k >= 0 {
			labels = append(labels, [2]string{pair[:k], pair[k+1:]})
		}
	}
	return base, labels
}
