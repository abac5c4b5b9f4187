package graph

import (
	"sync"
	"time"
)

// Plan is the backend-independent result of compiling one expression
// shape: the optimized graph, the instruction schedule, and the
// temporary-slot assignment, plus what the passes did. A Plan is
// immutable once built — lowering only reads it — so one Plan may be
// bound concurrently against many different operand bindings (the plan
// cache relies on this).
type Plan struct {
	Graph *Graph
	Sched []NodeID
	Asg   Assignment

	Folded        int
	CSEEliminated int
	DCEEliminated int

	// Profiled marks a plan whose schedule was priced with observed
	// per-op latencies from a ShapeProfile instead of the static cost
	// model — the result of a profile-guided recompile.
	Profiled bool
}

// EvictionPolicy names the cache's replacement policy, reported in
// CacheStats so operators can see which policy produced the eviction
// counters they are reading.
const EvictionPolicy = "cost-lru"

// CacheStats is a point-in-time snapshot of a PlanCache. A disabled
// cache (capacity < 1, or a nil *PlanCache) reports the zero value:
// no live size, no capacity, and no counter churn.
type CacheStats struct {
	Hits     uint64
	Misses   uint64
	Size     int
	Capacity int
	// Evicted counts plans dropped to make room for newer shapes.
	Evicted uint64
	// EvictedHot counts evicted plans that had been hit at least once
	// since insertion — a warm shape lost to capacity pressure. Under
	// the cost-LRU policy this stays low even during churn of cold
	// shapes; a rising EvictedHot means the capacity is genuinely too
	// small for the live shape population.
	EvictedHot uint64
	// Coalesced counts lookups that found a concurrent compile of the
	// same shape in flight and waited for its plan instead of running
	// the compile pipeline again (each is also counted as a hit: the
	// caller got a plan without compiling).
	Coalesced uint64
	// Policy names the eviction policy ("cost-lru"; empty when the
	// cache is disabled).
	Policy string
}

// HitRate returns hits / lookups, or 0 before the first lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one resident plan plus the bookkeeping eviction scores on.
type entry struct {
	plan    *Plan
	costNs  float64 // compile cost recorded at insert/replace
	lastUse uint64  // logical clock of the most recent lookup or insert
	hits    uint64  // hits against this entry since insertion
}

// flight is one in-progress compile of a shape: concurrent callers of
// Do on the same key wait on done instead of compiling again.
type flight struct {
	done chan struct{}
	plan *Plan // nil if the compile panicked; waiters then retry
}

// PlanCache memoizes compiled Plans by canonical shape key, so
// repeated request shapes skip folding, CSE, DCE, scheduling, and slot
// assignment and go straight to operand binding. It is safe for
// concurrent use, and Do deduplicates concurrent compiles of the same
// shape: the first caller runs the compile pipeline, later callers
// wait for its plan instead of redoing the work.
//
// Eviction is recency-and-cost aware ("cost-lru"): a hit refreshes an
// entry's recency, a compile records the plan's compile cost, and the
// victim is the entry with the lowest recency-weighted compile cost —
// compileNs / (age+1), where age is how many logical clock ticks ago
// the entry was last used. A hot shape (recently used) or an expensive
// shape (slow to recompile) therefore survives a churn of cold, cheap
// shapes that a FIFO policy would let push it out.
type PlanCache struct {
	mu         sync.Mutex
	cap        int
	clock      uint64 // logical time: one tick per lookup/insert/replace
	entries    map[string]*entry
	flights    map[string]*flight
	hits       uint64
	misses     uint64
	evicted    uint64
	evictedHot uint64
	coalesced  uint64

	// onEvict, when set, observes every eviction (the victim's key and
	// how many hits it had served). Called with the cache lock held, so
	// the hook must be fast and must not call back into the cache —
	// it exists to feed lightweight observers (flight-recorder events,
	// eviction counters).
	onEvict func(key string, hits uint64)
}

// NewPlanCache returns a cache bounded to capacity plans. A capacity
// below 1 disables caching: Peek returns nil, Replace is a no-op, Do
// always computes without touching any counter, and Stats reports the
// zero value.
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{
		cap:     capacity,
		entries: make(map[string]*entry),
		flights: make(map[string]*flight),
	}
}

// disabled reports whether the cache ignores all traffic.
func (c *PlanCache) disabled() bool { return c == nil || c.cap < 1 }

// Peek returns the cached plan for key without counting a hit or
// miss and without refreshing the entry's recency — a side-effect-free
// read for callers (admission-time cost estimation) that must not
// perturb the cache's hit-rate statistics or eviction order.
func (c *PlanCache) Peek(key string) *Plan {
	if c.disabled() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e.plan
	}
	return nil
}

// touch counts a hit on e and refreshes its recency. Caller holds mu.
func (c *PlanCache) touch(e *entry) {
	c.hits++
	e.hits++
	c.clock++
	e.lastUse = c.clock
}

// Do returns the plan for key: the cached one (hit), the plan of a
// concurrent in-flight compile of the same key (counted as a hit and
// as Coalesced — the caller waited instead of compiling), or the
// result of running compute (miss; its duration is recorded as the
// shape's compile cost and the plan inserted). compute runs without
// the cache lock held. A disabled cache always computes and reports
// hit=false.
func (c *PlanCache) Do(key string, compute func() *Plan) (*Plan, bool) {
	if c.disabled() {
		return compute(), false
	}
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.touch(e)
			c.mu.Unlock()
			return e.plan, true
		}
		if f, ok := c.flights[key]; ok {
			c.coalesced++
			c.hits++
			c.mu.Unlock()
			<-f.done
			if f.plan != nil {
				return f.plan, true
			}
			continue // winner panicked; retry (likely becoming the winner)
		}
		c.misses++
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		var p *Plan
		start := time.Now()
		// Resolve the flight even if compute panics, so waiters never
		// deadlock: they observe a nil plan and retry for themselves.
		defer func() {
			c.mu.Lock()
			if p != nil {
				c.insertLocked(key, p, float64(time.Since(start).Nanoseconds()))
				f.plan = p
			}
			delete(c.flights, key)
			close(f.done)
			c.mu.Unlock()
		}()
		p = compute()
		return p, false
	}
}

// Replace stores a plan under key, overwriting any existing entry —
// the profile-guided recompile path, where the new plan supersedes the
// stale one. The fresh entry starts with refreshed recency and zero
// hits.
func (c *PlanCache) Replace(key string, p *Plan, compileNs float64) {
	if c.disabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.clock++
		*e = entry{plan: p, costNs: compileNs, lastUse: c.clock}
		return
	}
	c.insertLocked(key, p, compileNs)
}

// insertLocked inserts under the cost-LRU policy. Caller holds mu.
func (c *PlanCache) insertLocked(key string, p *Plan, compileNs float64) {
	if _, ok := c.entries[key]; ok {
		return
	}
	for len(c.entries) >= c.cap {
		c.evictLocked()
	}
	c.clock++
	c.entries[key] = &entry{plan: p, costNs: compileNs, lastUse: c.clock}
}

// evictLocked drops the entry with the lowest recency-weighted compile
// cost: score = compileNs / (age+1), age = clock − lastUse. Ties break
// on oldest lastUse, then on key, so eviction is deterministic for a
// given trace. Caller holds mu and guarantees the cache is non-empty.
func (c *PlanCache) evictLocked() {
	var victimKey string
	var victim *entry
	var victimScore float64
	for k, e := range c.entries {
		score := e.costNs / float64(c.clock-e.lastUse+1)
		if victim == nil || score < victimScore ||
			(score == victimScore && (e.lastUse < victim.lastUse ||
				(e.lastUse == victim.lastUse && k < victimKey))) {
			victimKey, victim, victimScore = k, e, score
		}
	}
	delete(c.entries, victimKey)
	c.evicted++
	if victim.hits > 0 {
		c.evictedHot++
	}
	if c.onEvict != nil {
		c.onEvict(victimKey, victim.hits)
	}
}

// SetEvictHook installs fn as the cache's eviction observer (see
// onEvict for the constraints; nil clears it). Not safe to race with
// cache traffic — install it right after NewPlanCache.
func (c *PlanCache) SetEvictHook(fn func(key string, hits uint64)) {
	if c.disabled() {
		return
	}
	c.onEvict = fn
}

// Stats returns a snapshot of the cache counters. Disabled caches
// report the zero value.
func (c *PlanCache) Stats() CacheStats {
	if c.disabled() {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:       c.hits,
		Misses:     c.misses,
		Size:       len(c.entries),
		Capacity:   c.cap,
		Evicted:    c.evicted,
		EvictedHot: c.evictedHot,
		Coalesced:  c.coalesced,
		Policy:     EvictionPolicy,
	}
}
