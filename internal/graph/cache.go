package graph

import "sync"

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
	// per-op latencies from the shape's profile instead of the static
	// cost model — the result of a profile-guided recompile.
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

// entry is everything the cache keeps for one shape: the resident
// plan, the bookkeeping eviction scores on, the shape's measured
// profile, and the admission price of the plan. All of it lives and
// dies with the entry.
type entry struct {
	plan    *Plan
	cost    float64 // the plan's compile cost (see compileCost)
	lastUse uint64  // logical clock of the most recent lookup or insert
	hits    uint64  // hits against this entry since insertion

	// prof aggregates the jobs executed with the shape's plans; Replace
	// keeps it, eviction drops it.
	prof profile
	// priceNs is the admission price of plan (see Price), valid while
	// priced is set; Replace clears it.
	priceNs float64
	priced  bool
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
// Each entry also owns its shape's profile — the per-op latencies
// executed jobs measured (Record), which decide when the plan is
// rebuilt with observed costs (TakeRecompile, ScheduleCost, Replace) —
// and its admission price (Price). Evicting a shape drops all three.
//
// Eviction is recency-and-cost aware ("cost-lru"): a hit refreshes an
// entry's recency, and the victim is the entry with the lowest
// recency-weighted compile cost — cost / (age+1), where cost is derived
// from the plan (compileCost) and age is how many logical clock ticks
// ago the entry was last used. A hot shape (recently used) or an
// expensive shape (slow to recompile) therefore survives a churn of
// cold, cheap shapes that a FIFO policy would let push it out. Every
// input to the policy is a function of the lookup trace and the plans,
// never of the host's clock, so one trace always evicts the same
// shapes.
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

	// Profile feedback: a shape's plan is rebuilt once at least minJobs
	// jobs have been recorded and some op class's mean measured latency
	// diverges from the static model by more than threshold (relative).
	// threshold < 0 turns feedback off.
	threshold  float64
	minJobs    int
	jobs       uint64
	recompiles uint64

	// onEvict, when set, observes every eviction (the victim's key and
	// how many hits it had served). Called with the cache lock held, so
	// the hook must be fast and must not call back into the cache —
	// it exists to feed lightweight observers (flight-recorder events,
	// eviction counters).
	onEvict func(key string, hits uint64)
}

// NewPlanCache returns a cache bounded to capacity plans whose
// profile feedback asks for a recompile once a shape has minJobs
// recorded jobs and some op class diverges from the static model by
// more than threshold (relative); a threshold below 0 turns profile
// feedback off. A capacity below 1 disables the cache: Do always
// computes without touching any counter, Replace and Record do
// nothing, Price and TakeRecompile report false, and Stats and
// ProfileStats report the zero value.
func NewPlanCache(capacity int, threshold float64, minJobs int) *PlanCache {
	return &PlanCache{
		cap:       capacity,
		threshold: threshold,
		minJobs:   max(minJobs, 1),
		entries:   make(map[string]*entry),
		flights:   make(map[string]*flight),
	}
}

// disabled reports whether the cache ignores all traffic.
func (c *PlanCache) disabled() bool { return c == nil || c.cap < 1 }

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
// result of running compute (miss; the plan is inserted). compute
// runs without the cache lock held. A disabled cache always computes
// and reports hit=false.
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
		// Resolve the flight even if compute panics, so waiters never
		// deadlock: they observe a nil plan and retry for themselves.
		defer func() {
			c.mu.Lock()
			if p != nil {
				c.insertLocked(key, p)
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

// Replace stores a plan under key, overwriting any existing entry's
// plan — the profile-guided recompile path, where the new plan
// supersedes the stale one. The entry's recency is refreshed, its hits
// restart from zero and its price is dropped (the next Price computes
// it for p); its profile and recompile claim are kept. An absent key
// is inserted.
func (c *PlanCache) Replace(key string, p *Plan) {
	if c.disabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.clock++
		*e = entry{plan: p, cost: compileCost(p), lastUse: c.clock, prof: e.prof}
		return
	}
	c.insertLocked(key, p)
}

// insertLocked inserts under the cost-LRU policy. Caller holds mu.
func (c *PlanCache) insertLocked(key string, p *Plan) {
	if _, ok := c.entries[key]; ok {
		return
	}
	for len(c.entries) >= c.cap {
		c.evictLocked()
	}
	c.clock++
	c.entries[key] = &entry{plan: p, cost: compileCost(p), lastUse: c.clock}
}

// compileCost is what eviction weighs an entry by: the work of
// rebuilding its plan, which grows with the instructions the compile
// scheduled, plus one for the passes every compile runs. It is a
// function of the plan alone, so eviction repeats from run to run.
func compileCost(p *Plan) float64 { return float64(1 + len(p.Sched)) }

// evictLocked drops the entry with the lowest recency-weighted compile
// cost: score = cost / (age+1), age = clock − lastUse. Ties break
// on oldest lastUse, then on key, so eviction is deterministic for a
// given trace. Caller holds mu and guarantees the cache is non-empty.
func (c *PlanCache) evictLocked() {
	var victimKey string
	var victim *entry
	var victimScore float64
	for k, e := range c.entries {
		score := e.cost / float64(c.clock-e.lastUse+1)
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
