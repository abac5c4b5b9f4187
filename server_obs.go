package simdram

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"simdram/internal/obs"
)

// This file is the server's observability facade: the public names of
// the internal/obs types (a facade type that only copies an internal
// type is an alias of it), snapshot accessors for traces, events, and
// metrics, and the expvar-style HTTP debug handler. See
// docs/observability.md for the span model and metric names.

// TraceSpan is one timed stage of a traced job. Spans form a tree via
// Parent (an index into JobTrace.Spans; the root "job" span is index 0
// with Parent -1); times are nanoseconds relative to the trace start,
// and Channel is -1 when the stage is not channel-bound.
type TraceSpan = obs.Span

// JobTrace is one sampled job's completed span tree, as retained by
// the flight recorder.
type JobTrace struct {
	// ID matches JobResult.TraceID of the job that produced this trace.
	ID uint64 `json:"id"`
	// StartUnixNs anchors the spans' relative times to the wall clock.
	StartUnixNs int64 `json:"start_unix_ns"`
	// Err is the job's failure message, "" on success.
	Err string `json:"err,omitempty"`
	// Spans is the span tree in creation order; Spans[0] is the root
	// "job" span covering admission to completion.
	Spans []TraceSpan `json:"spans"`
}

// ObsEvent is one notable incident from the flight recorder's event
// ring: kinds are "error" (a job failed), "evict" (the plan cache
// evicted a compiled plan), and "recompile" (profile feedback rebuilt
// a plan).
type ObsEvent = obs.Event

// MetricPoint is one series from the server's metrics registry. For
// histograms the quantiles are filled from the log-scale buckets
// (relative error bounded at 1/8) and Value is the observation count;
// for counters and gauges only Value is meaningful.
type MetricPoint struct {
	Name string `json:"name"`
	// Kind is "counter", "gauge", or "histogram".
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
	// Histogram-only fields.
	Sum  int64   `json:"sum,omitempty"`
	Mean float64 `json:"mean,omitempty"`
	P50  int64   `json:"p50,omitempty"`
	P90  int64   `json:"p90,omitempty"`
	P99  int64   `json:"p99,omitempty"`
	P999 int64   `json:"p999,omitempty"`
}

func toMetricPoints(ms []obs.Metric) []MetricPoint {
	out := make([]MetricPoint, 0, len(ms))
	for _, m := range ms {
		p := MetricPoint{Name: m.Name, Kind: m.Kind.String(), Value: m.Value}
		if m.Hist != nil {
			p.Sum = m.Hist.Sum
			p.Mean = m.Hist.Mean()
			p.P50 = m.Hist.Quantile(0.50)
			p.P90 = m.Hist.Quantile(0.90)
			p.P99 = m.Hist.Quantile(0.99)
			p.P999 = m.Hist.Quantile(0.999)
		}
		out = append(out, p)
	}
	return out
}

func toJobTrace(t *obs.Trace) JobTrace {
	if t == nil {
		return JobTrace{}
	}
	return JobTrace{ID: t.ID, StartUnixNs: t.StartUnixNs, Err: t.Err(), Spans: t.Spans()}
}

// Traces returns the flight recorder's retained span trees, oldest
// first — the last TraceDepth completed sampled jobs.
func (s *Server) Traces() []JobTrace {
	ts := s.rec.Traces()
	out := make([]JobTrace, len(ts))
	for i, t := range ts {
		out[i] = toJobTrace(t)
	}
	return out
}

// Events returns the flight recorder's retained incidents (errors,
// plan-cache evictions, profile-guided recompiles), oldest first.
func (s *Server) Events() []ObsEvent { return s.rec.Events() }

// TraceRing reports the flight recorder's occupancy: retained traces,
// total ever recorded, and ring capacity.
func (s *Server) TraceRing() (retained int, total uint64, depth int) {
	return len(s.rec.Traces()), s.rec.TraceCount(), s.rec.Depth()
}

// ResetTraces clears the flight recorder's trace and event rings —
// e.g. to discard warmup history so a measurement window starts clean.
// In-flight jobs are unaffected; their traces land in the emptied ring
// as they complete.
func (s *Server) ResetTraces() { s.rec.Reset() }

// Metrics returns every series from the serving stack's metrics
// registry — scheduler counters and depth gauges, global and
// per-tenant latency histograms, plan-eviction counters, and the
// cluster's per-channel dispatch histograms — sorted by kind then
// name.
func (s *Server) Metrics() []MetricPoint {
	out := toMetricPoints(s.metrics.Snapshot())
	out = append(out, s.cl.Metrics()...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Metrics returns the cluster's dispatch series: the "cluster.batches"
// counter and one "cluster.dispatch_ns{channel=N}" histogram of
// modeled per-batch critical paths per channel.
func (c *Cluster) Metrics() []MetricPoint {
	return toMetricPoints(c.metrics.Snapshot())
}

// DebugHandler returns an expvar-style HTTP handler serving one JSON
// document with the server's point-in-time observability state:
//
//	{
//	  "stats":   ServerStats,
//	  "metrics": []MetricPoint,
//	  "traces":  []JobTrace,
//	  "events":  []ObsEvent
//	}
//
// A `?kind=metrics|traces|events` query serves just that section
// (still as a one-key document, so consumers parse one shape). Only
// GET and HEAD are allowed; other methods get 405, unknown kinds 400.
// Mount it wherever the deployment exposes debug endpoints:
//
//	http.Handle("/debug/simdram", srv.DebugHandler())
func (s *Server) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		doc := map[string]any{}
		switch kind := r.URL.Query().Get("kind"); kind {
		case "":
			doc["stats"] = s.Stats()
			doc["metrics"] = s.Metrics()
			doc["traces"] = s.Traces()
			doc["events"] = s.Events()
		case "metrics":
			doc["metrics"] = s.Metrics()
		case "traces":
			doc["traces"] = s.Traces()
		case "events":
			doc["events"] = s.Events()
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			http.Error(w, "unknown kind "+strconv.Quote(kind)+" (want metrics, traces, or events)", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// MetricsHandler returns a Prometheus-style text exposition handler
// for every registry series: counters and gauges as single samples,
// histograms as summaries (quantile-labeled samples plus _sum and
// _count). Series names map to metric families by replacing dots with
// underscores under a "simdram_" prefix, and the registry's
// base{label=value} convention becomes label syntax proper — e.g.
// channel.busy_ns{channel=2} is exposed as
//
//	simdram_channel_busy_ns{channel="2"} 1.23e+06
//
// Mount it next to DebugHandler:
//
//	http.Handle("/metrics", srv.MetricsHandler())
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeExposition(w, s.Metrics())
	})
}

// expoFamily groups the samples of one exposition metric family.
type expoFamily struct {
	name    string // simdram_-prefixed family name
	kind    string // "counter", "gauge", or "summary"
	samples []string
}

// expoName maps a registry base name to its exposition family name.
func expoName(base string) string {
	return "simdram_" + strings.ReplaceAll(base, ".", "_")
}

// expoLabels renders parsed label pairs (plus an optional extra pair)
// in exposition syntax: {k1="v1",k2="v2"} or "" when empty.
func expoLabels(labels [][2]string, extraK, extraV string) string {
	if len(labels) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[0])
		b.WriteByte('=')
		b.WriteString(strconv.Quote(kv[1]))
	}
	if extraK != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(extraV))
	}
	b.WriteByte('}')
	return b.String()
}

func expoFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeExposition renders the metric points grouped into families, each
// preceded by its # TYPE line, families and samples sorted by name.
func writeExposition(w io.Writer, points []MetricPoint) {
	fams := map[string]*expoFamily{}
	order := []string{}
	add := func(name, kind, sample string) {
		f := fams[name]
		if f == nil {
			f = &expoFamily{name: name, kind: kind}
			fams[name] = f
			order = append(order, name)
		}
		f.samples = append(f.samples, sample)
	}
	for _, p := range points {
		base, labels := obs.ParseSeries(p.Name)
		name := expoName(base)
		switch p.Kind {
		case "histogram":
			// Exposed as a summary: pre-extracted quantiles, exact sum
			// and count.
			for _, q := range [...]struct {
				q string
				v int64
			}{{"0.5", p.P50}, {"0.9", p.P90}, {"0.99", p.P99}, {"0.999", p.P999}} {
				add(name, "summary", name+expoLabels(labels, "quantile", q.q)+" "+strconv.FormatInt(q.v, 10))
			}
			add(name, "summary", name+"_sum"+expoLabels(labels, "", "")+" "+strconv.FormatInt(p.Sum, 10))
			add(name, "summary", name+"_count"+expoLabels(labels, "", "")+" "+expoFloat(p.Value))
		case "gauge":
			add(name, "gauge", name+expoLabels(labels, "", "")+" "+expoFloat(p.Value))
		default:
			add(name, "counter", name+expoLabels(labels, "", "")+" "+expoFloat(p.Value))
		}
	}
	sort.Strings(order)
	for _, name := range order {
		f := fams[name]
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		sort.Strings(f.samples)
		for _, s := range f.samples {
			fmt.Fprintln(w, s)
		}
	}
}
