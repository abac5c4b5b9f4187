package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed region inside a job's trace. Spans form a tree via
// Parent (an index into the trace's span slice; the root "job" span is
// index 0 with Parent -1). Times are nanoseconds relative to the
// trace's start, so a span tree is self-contained and cheap to ship.
// The facade's TraceSpan is an alias, so the JSON tags are the
// /debug/simdram wire keys.
type Span struct {
	// Name is the stage label ("queue", "compile", "run", ...).
	Name string `json:"name"`
	// Parent is the index of the enclosing span, -1 for the root.
	Parent int `json:"parent"`
	// Channel is the hardware channel the span ran on, -1 when the
	// stage is not channel-bound.
	Channel int `json:"channel"`
	// StartNs/EndNs are offsets from the trace start. EndNs is 0 while
	// the span is open (the root span starts at 0, so a completed
	// non-root span always has EndNs > 0).
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// DurNs returns the span's duration (0 while still open).
func (s Span) DurNs() int64 {
	if s.EndNs <= s.StartNs {
		return 0
	}
	return s.EndNs - s.StartNs
}

// Trace is one job's span tree. A nil *Trace is the disabled form:
// every method no-ops (Begin returns -1, which End and children accept
// silently), so call sites thread a possibly-nil trace through the
// pipeline without branching — and without allocating — when tracing
// is off.
//
// A trace is written by the one goroutine currently advancing the job
// plus the submitting goroutine (queue span), which hand off through
// the scheduler; the mutex makes reads from debug surfaces safe while
// a job is still in flight.
//
//simdram:nilsafe
type Trace struct {
	// ID is the job's trace ID, unique per tracer.
	ID uint64
	// StartUnixNs anchors the relative span times to the wall clock.
	StartUnixNs int64

	base time.Time // monotonic anchor for span offsets

	mu    sync.Mutex
	spans []Span
	err   string
}

// spanArity is the expected span count of a steady-state served job
// (job, admit, queue, compile, cache-lookup, lower, prepare, resolve,
// execute, run, gather); traces preallocate room for it plus a cold
// "schedule" span so tracing a typical job costs one allocation total.
const spanArity = 12

func newTrace(id uint64) *Trace {
	now := time.Now()
	t := &Trace{
		ID:          id,
		StartUnixNs: now.UnixNano(),
		base:        now,
		spans:       make([]Span, 0, spanArity),
	}
	t.spans = append(t.spans, Span{Name: "job", Parent: -1, Channel: -1})
	return t
}

func (t *Trace) nowNs() int64 { return int64(time.Since(t.base)) }

// Begin opens a span under parent (an index previously returned by
// Begin, or 0 for the root) and returns its index. On a nil trace it
// returns -1.
func (t *Trace) Begin(name string, parent int) int {
	return t.BeginOn(name, parent, -1)
}

// BeginOn is Begin for channel-bound stages: channel annotates which
// hardware channel the work ran on.
func (t *Trace) BeginOn(name string, parent, channel int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < -1 || parent >= len(t.spans) {
		parent = 0
	}
	t.spans = append(t.spans, Span{
		Name:    name,
		Parent:  parent,
		Channel: channel,
		StartNs: t.nowNs(),
	})
	return len(t.spans) - 1
}

// Record adds a closed span under parent timed by the caller's own
// clock readings, start and end, and returns its index: a stage that
// another component times (the scheduler's queue wait) then spans
// exactly the interval that component reports. On a nil trace it
// returns -1.
func (t *Trace) Record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < -1 || parent >= len(t.spans) {
		parent = 0
	}
	sp := Span{Name: name, Parent: parent, Channel: -1, StartNs: int64(start.Sub(t.base))}
	sp.EndNs = sp.StartNs + max(int64(end.Sub(start)), 0)
	t.spans = append(t.spans, sp)
	return len(t.spans) - 1
}

// End closes the span at index i (from Begin). Out-of-range indices —
// including the -1 a nil trace hands out — are ignored, so paired
// Begin/End sites need no guards.
func (t *Trace) End(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= len(t.spans) {
		return
	}
	if t.spans[i].EndNs == 0 {
		t.spans[i].EndNs = t.nowNs()
	}
}

// SetErr records the job's failure on the trace (first writer wins).
func (t *Trace) SetErr(msg string) {
	if t == nil || msg == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == "" {
		t.err = msg
	}
}

// Err returns the recorded failure, "" for success or a nil trace.
func (t *Trace) Err() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Spans returns a copy of the span tree in creation order (index 0 is
// the root). Nil for a nil trace.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// finish closes the root span; idempotent.
func (t *Trace) finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[0].EndNs == 0 {
		t.spans[0].EndNs = t.nowNs()
	}
}

// Tracer decides which jobs get a trace and hands completed traces to
// the flight recorder. Sampling is deterministic every-Nth (derived
// from the configured rate), so a long run traces a representative
// stream without per-job randomness. A nil tracer, or one with
// sampling 0, returns nil traces from Start — the fully disabled,
// zero-allocation path.
type Tracer struct {
	everyN uint64 // trace every Nth job; 0 = disabled
	seq    atomic.Uint64
	ids    atomic.Uint64
	rec    *FlightRecorder
}

// NewTracer builds a tracer that samples approximately the given
// fraction of jobs (1.0 = all, 0 = none; fractions become every-Nth)
// and records finished traces into rec (which may be nil to discard).
func NewTracer(sampling float64, rec *FlightRecorder) *Tracer {
	var n uint64
	switch {
	case sampling >= 1:
		n = 1
	case sampling <= 0:
		n = 0
	default:
		n = uint64(1/sampling + 0.5)
		if n < 1 {
			n = 1
		}
	}
	return &Tracer{everyN: n, rec: rec}
}

// Start returns a new trace for a job, or nil when the job is not
// sampled (or the tracer is nil/disabled). The returned trace already
// has its root "job" span open.
func (t *Tracer) Start() *Trace {
	if t == nil || t.everyN == 0 {
		return nil
	}
	if t.seq.Add(1)%t.everyN != 0 {
		return nil
	}
	return newTrace(t.ids.Add(1))
}

// Finish closes the trace's root span and hands it to the flight
// recorder. Safe on nil traces and tracers.
func (t *Tracer) Finish(tr *Trace) {
	if tr == nil {
		return
	}
	tr.finish()
	if t != nil {
		t.rec.RecordTrace(tr)
	}
}
