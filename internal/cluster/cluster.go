// Package cluster provides the channel-agnostic machinery behind the
// public Cluster facade: placement of a sharded object's elements
// across independent channels, concurrent per-channel dispatch with
// cross-channel cancellation, and honest merging of per-channel batch
// statistics (sums for work and energy, max for the makespan).
//
// A "channel" here is one independent DRAM compute fabric — a full
// System with its own module and control unit. The
// package never touches channel state itself; it decides where elements
// go, runs the caller's per-channel closures, and folds their results.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Span assigns a contiguous run of a sharded object's elements to one
// channel: elements [Off, Off+Count) live on channel Channel.
type Span struct {
	Channel int
	Off     int
	Count   int
}

// Plan is the placement of one sharded object: disjoint spans covering
// [0, Len()) in element order. Two objects can meet in a cross-channel
// operation only if their plans are identical — then element j of every
// operand lives on the same channel at the same local index.
type Plan struct {
	Spans []Span
}

// Equal reports whether two plans place elements identically.
func (p Plan) Equal(o Plan) bool {
	if len(p.Spans) != len(o.Spans) {
		return false
	}
	for i := range p.Spans {
		if p.Spans[i] != o.Spans[i] {
			return false
		}
	}
	return true
}

// MakePlan stripes n elements over the given channel order as
// near-equal contiguous chunks: every channel gets n/len(order)
// elements and the first n%len(order) channels one extra. Channels may
// appear in order at most once; an order longer than n simply leaves
// the tail channels empty (no zero-count spans are emitted).
func MakePlan(n int, order []int) (Plan, error) {
	if n <= 0 {
		return Plan{}, fmt.Errorf("cluster: plan size must be positive, have %d", n)
	}
	if len(order) == 0 {
		return Plan{}, fmt.Errorf("cluster: empty channel order")
	}
	seen := map[int]bool{}
	for _, ch := range order {
		if ch < 0 {
			return Plan{}, fmt.Errorf("cluster: negative channel %d", ch)
		}
		if seen[ch] {
			return Plan{}, fmt.Errorf("cluster: channel %d listed twice", ch)
		}
		seen[ch] = true
	}
	base, extra := n/len(order), n%len(order)
	var p Plan
	off := 0
	for i, ch := range order {
		count := base
		if i < extra {
			count++
		}
		if count == 0 {
			break
		}
		p.Spans = append(p.Spans, Span{Channel: ch, Off: off, Count: count})
		off += count
	}
	return p, nil
}

// Policy chooses the channel order a new allocation stripes across,
// given the current per-channel load (allocated rows). The order must
// be deterministic in its inputs so that equal-sized allocations made
// under equal load share a plan — the property cross-channel execution
// relies on.
type Policy interface {
	Name() string
	Order(loads []int) []int
}

// RoundRobin stripes every allocation across all channels in fixed
// index order. Same-length vectors therefore always share a plan,
// which makes round-robin the default policy for operand groups that
// will meet in cross-channel operations.
type RoundRobin struct{}

func (RoundRobin) Name() string { return "round-robin" }

// Order returns 0..len(loads)-1 regardless of load.
func (RoundRobin) Order(loads []int) []int {
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	return order
}

// LeastLoaded orders channels by ascending allocated rows (ties broken
// by index), so the channels with the most free rows absorb the larger
// chunks. Every allocation changes the loads it orders by, so even
// consecutive same-length allocations can receive different plans;
// operand groups that must stay aligned should be planned from one
// load snapshot (the facade's AllocShardedGroup) or pinned with
// Affinity.
type LeastLoaded struct{}

func (LeastLoaded) Name() string { return "least-loaded-rows" }

// Order sorts channel indices by load, ascending, stable in index.
func (LeastLoaded) Order(loads []int) []int {
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] < loads[order[b]] })
	return order
}

// Affinity pins allocations to an explicit channel sequence — the
// caller's placement decision, e.g. to keep a tenant on a channel
// subset or to co-locate operand groups.
type Affinity struct {
	Channels []int
}

func (Affinity) Name() string { return "affinity" }

// Order returns the pinned channel sequence, ignoring load.
func (a Affinity) Order(loads []int) []int {
	return append([]int(nil), a.Channels...)
}

// Dispatch runs one task per entry of channels concurrently: every
// task but the last on a goroutine of its own, the last on the calling
// goroutine. Every task runs to completion; all failures come back in
// one joined error, each annotated with its channel.
func Dispatch(channels []int, fn func(task, channel int) error) error {
	if len(channels) == 0 {
		return nil
	}
	errs := make([]error, len(channels))
	run := func(i int) {
		if err := fn(i, channels[i]); err != nil {
			errs[i] = fmt.Errorf("channel %d: %w", channels[i], err)
		}
	}
	last := len(channels) - 1
	var wg sync.WaitGroup
	wg.Add(last)
	for i := range last {
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	run(last)
	wg.Wait()
	return errors.Join(errs...)
}
