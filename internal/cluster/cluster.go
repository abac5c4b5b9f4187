// Package cluster provides the channel-agnostic machinery behind the
// public Cluster facade: placement of a sharded object's elements
// across independent channels, concurrent per-channel dispatch that
// runs every channel's task to completion and joins their errors, and
// honest merging of per-channel batch statistics (sums for work and
// energy, max for the makespan).
//
// A "channel" here is one independent DRAM compute fabric — a full
// System with its own module and control unit. The
// package never touches channel state itself; it decides where elements
// go, runs the caller's per-channel closures, and folds their results.
package cluster

import (
	"errors"
	"fmt"
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
// [0, Len()) in element order. A plan depends only on the element count
// and the channel count, so objects of equal length share one: element
// j of every operand lives on the same channel at the same local index.
type Plan struct {
	Spans []Span
}

// MakePlan stripes n elements over channels 0..channels-1 as near-equal
// contiguous chunks: every channel gets n/channels elements and the
// first n%channels channels one extra. With fewer elements than
// channels the tail channels stay empty (no zero-count spans are
// emitted).
func MakePlan(n, channels int) (Plan, error) {
	if n <= 0 {
		return Plan{}, fmt.Errorf("cluster: plan size must be positive, have %d", n)
	}
	if channels <= 0 {
		return Plan{}, fmt.Errorf("cluster: plan needs at least 1 channel, have %d", channels)
	}
	base, extra := n/channels, n%channels
	var p Plan
	off := 0
	for ch := 0; ch < channels; ch++ {
		count := base
		if ch < extra {
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
