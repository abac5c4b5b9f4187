package obs

import (
	"fmt"
	"sync"
	"time"
)

// Event is one notable incident retained by the flight recorder: a job
// error, a plan-cache eviction, a profile-guided recompile. The
// facade's ObsEvent is an alias, so the JSON tags are the
// /debug/simdram wire keys.
type Event struct {
	// AtUnixNs is the wall-clock time the event was recorded.
	AtUnixNs int64 `json:"at_unix_ns"`
	// Kind classifies the event ("error", "evict", "recompile", ...).
	Kind string `json:"kind"`
	// Detail is a short human-readable description.
	Detail string `json:"detail"`
}

// FlightRecorder keeps the last N completed job traces and the last M
// events in fixed rings — enough recent history to answer "what just
// happened" from a debug endpoint without unbounded growth. All
// methods are safe for concurrent use and nil-safe on the recording
// side, so producers never guard.
type FlightRecorder struct {
	mu sync.Mutex

	traces  []*Trace // ring storage; nil slots not yet filled
	tNext   int
	tTotal  uint64
	events  []event
	eNext   int
	dropped uint64 // traces overwritten before being read
}

// NewFlightRecorder builds a recorder retaining up to traceDepth
// traces and eventDepth events (minimum 1 each; non-positive depths
// are clamped).
func NewFlightRecorder(traceDepth, eventDepth int) *FlightRecorder {
	if traceDepth < 1 {
		traceDepth = 1
	}
	if eventDepth < 1 {
		eventDepth = 1
	}
	return &FlightRecorder{
		traces: make([]*Trace, traceDepth),
		events: make([]event, eventDepth),
	}
}

// RecordTrace retains a completed trace, evicting the oldest once the
// ring is full.
func (r *FlightRecorder) RecordTrace(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.traces[r.tNext] != nil {
		r.dropped++
	}
	r.traces[r.tNext] = t
	r.tNext = (r.tNext + 1) % len(r.traces)
	r.tTotal++
}

// event is one slot of the event ring. With format set, the Event's
// Detail is format applied to n and key, formatted when Events reads
// the slot.
type event struct {
	Event
	format string
	n      uint64
	key    string
}

// record puts e in the ring, stamped with the current time.
func (r *FlightRecorder) record(e event) {
	e.AtUnixNs = time.Now().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events[r.eNext] = e
	r.eNext = (r.eNext + 1) % len(r.events)
}

// Event records an incident.
func (r *FlightRecorder) Event(kind, detail string) {
	if r == nil {
		return
	}
	r.record(event{Event: Event{Kind: kind, Detail: detail}})
}

// EventKey records an incident whose detail is format, a count verb
// then a key verb, applied to n and key. The detail is formatted only
// when Events reads it, so recording allocates nothing: what a
// producer holding a lock records.
//
//simdram:zeroalloc
func (r *FlightRecorder) EventKey(kind, format string, n uint64, key string) {
	if r == nil {
		return
	}
	r.record(event{Event: Event{Kind: kind}, format: format, n: n, key: key})
}

// Eventf records an incident with a formatted detail string.
func (r *FlightRecorder) Eventf(kind, format string, args ...any) {
	if r == nil {
		return
	}
	r.Event(kind, fmt.Sprintf(format, args...))
}

// Traces returns the retained traces, oldest first.
func (r *FlightRecorder) Traces() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, len(r.traces))
	n := len(r.traces)
	for i := 0; i < n; i++ {
		if t := r.traces[(r.tNext+i)%n]; t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Events returns the retained events, oldest first.
func (r *FlightRecorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.events))
	n := len(r.events)
	for i := 0; i < n; i++ {
		e := r.events[(r.eNext+i)%n]
		if e.AtUnixNs == 0 {
			continue
		}
		if e.format != "" {
			e.Detail = fmt.Sprintf(e.format, e.n, e.key)
		}
		out = append(out, e.Event)
	}
	return out
}

// TraceCount returns the total number of traces ever recorded (not the
// retained count).
func (r *FlightRecorder) TraceCount() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tTotal
}

// Depth returns the trace ring capacity.
func (r *FlightRecorder) Depth() int {
	if r == nil {
		return 0
	}
	return len(r.traces)
}

// Reset drops all retained traces and events (counters included) —
// used to discard warmup history so a measurement window starts clean.
func (r *FlightRecorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.traces {
		r.traces[i] = nil
	}
	clear(r.events)
	r.tNext, r.eNext = 0, 0
	r.tTotal, r.dropped = 0, 0
}
