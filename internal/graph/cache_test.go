package graph

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simdram/internal/ops"
)

func opDef(t *testing.T, name string) ops.Def {
	t.Helper()
	d, err := ops.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// buildAddMax constructs input(w) + input(w) then max with a third
// input — the reference shape the key tests vary.
func buildAddMax(t *testing.T, width int, op1, op2 string) *Graph {
	t.Helper()
	g := New()
	a, _ := g.Input(width)
	b, _ := g.Input(width)
	c, _ := g.Input(width)
	s, err := g.Op(opDef(t, op1), a, b)
	if err != nil {
		t.Fatal(err)
	}
	r, err := g.Op(opDef(t, op2), s, c)
	if err != nil {
		t.Fatal(err)
	}
	g.MarkRoot(r)
	return g
}

func TestCanonicalKeyEquivalence(t *testing.T) {
	// Same shape built twice — regardless of which storage would back
	// the inputs — has the same key.
	k1 := buildAddMax(t, 8, "addition", "max").CanonicalKey("")
	k2 := buildAddMax(t, 8, "addition", "max").CanonicalKey("")
	if k1 != k2 {
		t.Fatalf("identical shapes, different keys:\n%q\n%q", k1, k2)
	}

	// Same topology, different width: must differ.
	if k := buildAddMax(t, 16, "addition", "max").CanonicalKey(""); k == k1 {
		t.Fatal("different widths produced the same key")
	}
	// Same topology, different opcode: must differ.
	if k := buildAddMax(t, 8, "subtraction", "max").CanonicalKey(""); k == k1 {
		t.Fatal("different opcodes produced the same key")
	}
	if k := buildAddMax(t, 8, "addition", "min").CanonicalKey(""); k == k1 {
		t.Fatal("different second opcode produced the same key")
	}
}

func TestCanonicalKeyDistinguishesConstsAndRoots(t *testing.T) {
	build := func(val uint64, markBoth bool) string {
		g := New()
		a, _ := g.Input(8)
		c, _ := g.Const(val, 8)
		s, err := g.Op(opDef(t, "addition"), a, c)
		if err != nil {
			t.Fatal(err)
		}
		g.MarkRoot(s)
		if markBoth {
			g.MarkRoot(a)
		}
		return g.CanonicalKey("")
	}
	if build(3, false) == build(4, false) {
		t.Fatal("different constant values produced the same key")
	}
	if build(3, false) == build(3, true) {
		t.Fatal("different root sets produced the same key")
	}
}

func TestCanonicalKeyDistinguishesTopology(t *testing.T) {
	// (a+b)+c vs a+(b+c): same node multiset, different edges.
	add := opDef(t, "addition")
	left := New()
	{
		a, _ := left.Input(8)
		b, _ := left.Input(8)
		c, _ := left.Input(8)
		s1, _ := left.Op(add, a, b)
		s2, _ := left.Op(add, s1, c)
		left.MarkRoot(s2)
	}
	right := New()
	{
		a, _ := right.Input(8)
		b, _ := right.Input(8)
		c, _ := right.Input(8)
		s1, _ := right.Op(add, b, c)
		s2, _ := right.Op(add, a, s1)
		right.MarkRoot(s2)
	}
	if left.CanonicalKey("") == right.CanonicalKey("") {
		t.Fatal("different topologies produced the same key")
	}
}

func TestPlanCacheHitMissEviction(t *testing.T) {
	c := NewPlanCache(2, 0.25, 1)
	if p := c.lookup("a"); p != nil {
		t.Fatal("empty cache returned a plan")
	}
	pa, pb, pc := &Plan{}, &Plan{}, &Plan{}
	c.insert("a", pa)
	c.insert("b", pb)
	if got := c.lookup("a"); got != pa {
		t.Fatal("lookup after insert missed")
	}
	// Third insert must evict the least valuable entry — with equal
	// plan sizes (compile costs) that is the least recently used ("b": "a" was just
	// looked up), NOT the FIFO-oldest ("a").
	c.insert("c", pc)
	if got := c.lookup("a"); got != pa {
		t.Fatal("recently used plan evicted (FIFO behavior) instead of the LRU one")
	}
	if got := c.lookup("b"); got != nil {
		t.Fatal("capacity-2 cache retained 3 plans")
	}
	if got := c.lookup("c"); got != pc {
		t.Fatal("newest plan evicted instead of the LRU one")
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 2 || st.Size != 2 || st.Evicted != 1 {
		t.Fatalf("stats = %+v, want 3 hits, 2 misses, size 2, 1 evicted", st)
	}
	if got, want := st.HitRate(), 3.0/5.0; got != want {
		t.Fatalf("hit rate = %v, want %v", got, want)
	}
	if st.Policy != EvictionPolicy {
		t.Fatalf("policy = %q, want %q", st.Policy, EvictionPolicy)
	}
	// The evicted "b" had never been hit: not a hot eviction.
	if st.EvictedHot != 0 {
		t.Fatalf("EvictedHot = %d, want 0 (victim was cold)", st.EvictedHot)
	}

	// Duplicate insert keeps the first plan.
	c.insert("c", &Plan{})
	if got := c.lookup("c"); got != pc {
		t.Fatal("duplicate insert replaced the original plan")
	}
}

// sizedPlan returns a plan scheduling ops instructions: what the
// cost-LRU policy prices an entry's compile cost by.
func sizedPlan(ops int) *Plan { return &Plan{Sched: make([]NodeID, ops)} }

// TestPlanCacheCostWeightedEviction pins the cost half of the policy:
// of two entries, the cheap-to-recompile (smaller) one is the victim
// even though the costly one is older.
func TestPlanCacheCostWeightedEviction(t *testing.T) {
	c := NewPlanCache(2, 0.25, 1)
	c.insert("costly", sizedPlan(1000))
	c.insert("cheap", &Plan{})
	// The costly plan is staler, yet the cheap plan must go.
	c.insert("new", &Plan{})
	if c.lookup("costly") == nil {
		t.Fatal("expensive plan evicted before the cheap one")
	}
	if c.lookup("cheap") != nil {
		t.Fatal("cheap plan survived over the expensive one")
	}
}

// TestPlanCacheHotShapeSurvivesChurn is the eviction-policy property
// test: one hot shape, refreshed between every insertion, survives a
// churn of N > capacity cold shapes — while a reference FIFO cache
// replaying the exact same trace drops the hot shape and ends with a
// strictly lower hit rate.
func TestPlanCacheHotShapeSurvivesChurn(t *testing.T) {
	const capacity = 8
	const churn = 64 // cold shapes, > capacity

	// Reference FIFO cache (the old policy), replayed on the same trace.
	fifoEntries := map[string]bool{}
	var fifoOrder []string
	var fifoHits, fifoLookups int
	fifoEvictedHot := false
	fifoLookup := func(key string) bool {
		fifoLookups++
		if fifoEntries[key] {
			fifoHits++
			return true
		}
		return false
	}
	fifoInsert := func(key string) {
		if fifoEntries[key] {
			return
		}
		for len(fifoOrder) >= capacity {
			if fifoOrder[0] == "hot" {
				fifoEvictedHot = true
			}
			delete(fifoEntries, fifoOrder[0])
			fifoOrder = fifoOrder[1:]
		}
		fifoEntries[key] = true
		fifoOrder = append(fifoOrder, key)
	}

	c := NewPlanCache(capacity, 0.25, 1)
	hot := &Plan{}
	trace := func(key string) *Plan {
		// One lookup; on miss, an insert — both caches see the same ops.
		p := c.lookup(key)
		hitFIFO := fifoLookup(key)
		if p == nil {
			np := &Plan{}
			if key == "hot" {
				np = hot
			}
			c.insert(key, np)
			p = np
		}
		if !hitFIFO {
			fifoInsert(key)
		}
		return p
	}

	trace("hot") // cold insert of the hot shape — FIFO-oldest from now on
	for i := 0; i < churn; i++ {
		trace(fmt.Sprintf("cold-%d", i)) // one-off shape, never seen again
		if got := trace("hot"); got != hot {
			t.Fatalf("hot shape evicted after %d cold insertions (new policy must keep it resident)", i+1)
		}
	}

	if !fifoEvictedHot {
		t.Fatal("reference FIFO never evicted the hot shape — the trace does not discriminate the policies")
	}
	st := c.Stats()
	newRate := st.HitRate()
	fifoRate := float64(fifoHits) / float64(fifoLookups)
	if newRate <= fifoRate {
		t.Fatalf("cost-LRU hit rate %.3f not strictly higher than FIFO %.3f on the same trace", newRate, fifoRate)
	}
	// Every eviction was a never-hit cold shape: no hot evictions.
	if st.Evicted == 0 || st.EvictedHot != 0 {
		t.Fatalf("stats = %+v, want cold evictions only", st)
	}
}

// TestPlanCacheEvictedHot pins the EvictedHot counter: forcing a
// once-hit entry out (by stacking expensive fresher entries) counts as
// a hot eviction.
func TestPlanCacheEvictedHot(t *testing.T) {
	c := NewPlanCache(2, 0.25, 1)
	c.insert("warm", &Plan{})
	if c.lookup("warm") == nil { // one hit: the entry is warm now
		t.Fatal("warm lookup missed")
	}
	c.insert("costly-1", sizedPlan(1000))
	c.insert("costly-2", sizedPlan(1000)) // victim must be "warm" (cheapest)
	st := c.Stats()
	if st.Evicted != 1 || st.EvictedHot != 1 {
		t.Fatalf("stats = %+v, want 1 eviction counted hot", st)
	}
	if c.lookup("warm") != nil {
		t.Fatal("expected warm entry to be the victim of the cost-weighted policy")
	}
}

// TestPlanCacheReplace pins the recompile path: Replace overwrites the
// entry in place (no eviction, fresh recency).
func TestPlanCacheReplace(t *testing.T) {
	c := NewPlanCache(2, 0.25, 1)
	p1, p2 := &Plan{}, &Plan{Profiled: true}
	c.insert("a", p1)
	c.Replace("a", p2)
	if got := c.lookup("a"); got != p2 {
		t.Fatal("Replace did not overwrite the entry")
	}
	st := c.Stats()
	if st.Size != 1 || st.Evicted != 0 {
		t.Fatalf("stats = %+v, want size 1 and no evictions after Replace", st)
	}
	// Replace on an absent key inserts.
	c.Replace("b", p1)
	if got := c.lookup("b"); got != p1 {
		t.Fatal("Replace on an absent key did not insert")
	}
}

// TestPlanCacheDisabled pins the disabled-cache contract: capacity < 1
// (and nil) caches ignore all traffic — no plans retained, and no
// counter churn, so Stats and HitRate cannot mislead (a disabled cache
// must not report a live size or a 0% hit rate climbing from real
// lookups).
func TestPlanCacheDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := NewPlanCache(capacity, 0.25, 1)
		c.insert("a", &Plan{})
		if got := c.lookup("a"); got != nil {
			t.Fatalf("capacity-%d cache cached a plan", capacity)
		}
		computes := 0
		p, hit := c.Do("a", func() *Plan { computes++; return &Plan{} })
		if p == nil || hit || computes != 1 {
			t.Fatalf("capacity-%d cache Do: plan=%v hit=%v computes=%d, want computed miss", capacity, p, hit, computes)
		}
		if st := c.Stats(); st != (CacheStats{}) {
			t.Fatalf("capacity-%d cache counted traffic: %+v, want zero-valued stats", capacity, st)
		}
	}
	var nilCache *PlanCache
	if got := nilCache.lookup("a"); got != nil {
		t.Fatal("nil cache returned a plan")
	}
	nilCache.insert("a", &Plan{}) // must not panic
	if p, hit := nilCache.Do("a", func() *Plan { return &Plan{} }); p == nil || hit {
		t.Fatal("nil cache Do must compute")
	}
	if st := nilCache.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

// TestPlanCacheDoSingleflight proves in-flight deduplication under
// -race: many goroutines missing on the same key run the compile
// exactly once — the winner compiles, every loser waits for the
// winner's plan instead of executing its own compile pipeline.
func TestPlanCacheDoSingleflight(t *testing.T) {
	c := NewPlanCache(8, 0.25, 1)
	const waiters = 16
	var computes int32
	release := make(chan struct{})
	start := make(chan struct{})
	var wg sync.WaitGroup
	plans := make([]*Plan, waiters)
	for w := 0; w < waiters; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p, _ := c.Do("shape", func() *Plan {
				atomic.AddInt32(&computes, 1)
				<-release // hold the flight open so every waiter piles up
				return &Plan{}
			})
			plans[w] = p
		}()
	}
	close(start)
	// Wait until every non-winner is parked on the flight, then let the
	// winner finish.
	for {
		st := c.Stats()
		if st.Coalesced+1 == waiters {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("%d goroutines compiled, want exactly 1 (losers must wait for the winner)", computes)
	}
	for w := 1; w < waiters; w++ {
		if plans[w] != plans[0] {
			t.Fatalf("waiter %d got a different plan than the winner", w)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != waiters-1 || st.Hits != waiters-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d coalesced hits", st, waiters-1)
	}
}

// TestPlanCacheDoPanicRecovers pins the failure path of the flight: a
// panicking compile must not strand waiters or poison the key.
func TestPlanCacheDoPanicRecovers(t *testing.T) {
	c := NewPlanCache(8, 0.25, 1)
	func() {
		defer func() { recover() }()
		c.Do("shape", func() *Plan { panic("compile failed") })
	}()
	done := make(chan *Plan, 1)
	go func() {
		p, _ := c.Do("shape", func() *Plan { return &Plan{} })
		done <- p
	}()
	select {
	case p := <-done:
		if p == nil {
			t.Fatal("retry after panicked flight returned nil plan")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter deadlocked on a panicked flight")
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	c := NewPlanCache(64, 0.25, 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("shape-%d", (i+w)%32)
				if c.lookup(key) == nil {
					c.insert(key, &Plan{})
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Size != 32 {
		t.Fatalf("size = %d, want 32 distinct shapes", st.Size)
	}
	if st.Hits+st.Misses != 8*200 {
		t.Fatalf("lookups = %d, want %d", st.Hits+st.Misses, 8*200)
	}
}

// lookup returns the cached plan for key, or nil, counting the hit or
// miss and refreshing the entry's recency on a hit. A disabled cache
// returns nil without counting anything.
func (c *PlanCache) lookup(key string) *Plan {
	if c.disabled() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.touch(e)
		return e.plan
	}
	c.misses++
	return nil
}

// insert stores a plan under key. An existing entry is kept: first
// writer wins, concurrent compilers of the same shape produce
// equivalent plans.
func (c *PlanCache) insert(key string, p *Plan) {
	if c.disabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, p)
}
