package graph

import (
	"fmt"
	"sync"
	"testing"

	"simdram/internal/ops"
)

// profilePlan builds a two-op plan (add then max over three inputs)
// whose schedule the profile tests feed observations against.
func profilePlan(t *testing.T) *Plan {
	t.Helper()
	g := buildAddMax(t, 8, "addition", "max")
	return &Plan{Graph: g, Sched: g.ProgramOrder()}
}

// unitModel prices every op class at a fixed static cost.
func unitModel(ns float64) CostFn {
	return func(ops.Def, int, int) float64 { return ns }
}

// profileCache returns a cache holding plan under each key, with the
// given profile-feedback settings: a profile lives in its shape's
// cache entry, so observations need the entry first.
func profileCache(threshold float64, minJobs int, plan *Plan, keys ...string) *PlanCache {
	c := NewPlanCache(16, threshold, minJobs)
	for _, k := range keys {
		c.insert(k, plan, 100)
	}
	return c
}

func TestProfileStoreDivergenceTriggersOnce(t *testing.T) {
	plan := profilePlan(t)
	s := profileCache(0.25, 3, plan, "match", "skew")
	model := unitModel(100)

	// Matching observations: never diverges no matter how many jobs.
	for i := 0; i < 5; i++ {
		s.Record("match", plan, []float64{100, 100}, model)
	}
	if s.TakeRecompile("match") {
		t.Fatal("profile matching the model must not trigger a recompile")
	}

	// Diverged observations (2× the model): below minJobs no trigger,
	// at minJobs exactly one caller wins the recompile.
	s.Record("skew", plan, []float64{200, 200}, model)
	s.Record("skew", plan, []float64{200, 200}, model)
	if s.TakeRecompile("skew") {
		t.Fatal("recompile triggered below minJobs")
	}
	s.Record("skew", plan, []float64{200, 200}, model)
	if !s.TakeRecompile("skew") {
		t.Fatal("diverged profile at minJobs did not trigger a recompile")
	}
	if s.TakeRecompile("skew") {
		t.Fatal("second TakeRecompile on the same shape must lose")
	}
	st := s.ProfileStats()
	if st.Recompiles != 1 || st.Shapes != 2 || st.Jobs != 8 {
		t.Fatalf("stats = %+v, want 1 recompile over 2 shapes / 8 jobs", st)
	}
	if got := s.Jobs("skew"); got != 3 {
		t.Fatalf("Jobs(skew) = %d, want 3", got)
	}
}

func TestProfileStoreScheduleCost(t *testing.T) {
	plan := profilePlan(t)
	s := profileCache(0.25, 1, plan, "k")
	model := unitModel(100)
	// add measured at 400, max at 100.
	s.Record("k", plan, []float64{400, 100}, model)

	cost := s.ScheduleCost("k", unitModel(7))
	add, max := opDef(t, "addition"), opDef(t, "max")
	if got := cost(add, 8, 2); got != 400 {
		t.Fatalf("observed addition cost = %v, want 400", got)
	}
	if got := cost(max, 8, 2); got != 100 {
		t.Fatalf("observed max cost = %v, want 100", got)
	}
	// Unobserved op class (different width) falls back to base.
	if got := cost(add, 16, 2); got != 7 {
		t.Fatalf("unobserved class cost = %v, want base 7", got)
	}
	// A shape the cache does not hold is priced by base.
	if got := s.ScheduleCost("absent", unitModel(7))(add, 8, 2); got != 7 {
		t.Fatalf("uncached shape cost = %v, want base 7", got)
	}
}

func TestProfileStoreRecordMismatchIgnored(t *testing.T) {
	plan := profilePlan(t)
	s := profileCache(0.25, 1, plan, "k")
	s.Record("k", plan, []float64{1}, unitModel(1))         // wrong length
	s.Record("k", plan, nil, unitModel(1))                  // empty
	s.Record("k", nil, []float64{1, 1}, unitModel(1))       // no plan
	s.Record("k", plan, []float64{1, 1}, nil)               // no model
	s.Record("absent", plan, []float64{1, 1}, unitModel(1)) // no entry
	if st := s.ProfileStats(); st.Jobs != 0 || st.Shapes != 0 {
		t.Fatalf("malformed records were folded in: %+v", st)
	}
}

// TestProfileStoreNilSafe pins the off states: a nil cache, a disabled
// (capacity < 1) cache and a negative threshold record nothing and
// never ask for a recompile.
func TestProfileStoreNilSafe(t *testing.T) {
	plan := profilePlan(t)
	var nilCache *PlanCache
	off := profileCache(-1, 1, plan, "k")
	for name, s := range map[string]*PlanCache{
		"nil": nilCache, "capacity 0": NewPlanCache(0, 0.25, 1), "threshold -1": off,
	} {
		for i := 0; i < 3; i++ {
			s.Record("k", plan, []float64{300, 300}, unitModel(1))
		}
		if s.TakeRecompile("k") {
			t.Fatalf("%s: asked for a recompile", name)
		}
		if got := s.ScheduleCost("k", unitModel(5))(opDef(t, "addition"), 8, 2); got != 5 {
			t.Fatalf("%s: ScheduleCost = %v, want base", name, got)
		}
		if s.Jobs("k") != 0 || s.ProfileStats() != (ProfileStats{}) {
			t.Fatalf("%s: reported non-zero profile state", name)
		}
	}
	if _, ok := nilCache.Price("k", unitModel(5), 1); ok {
		t.Fatal("nil cache priced a plan")
	}
}

// TestProfileStoreConcurrent exercises Record/TakeRecompile/
// ScheduleCost/Price under -race and proves at most one recompile is
// claimed per shape.
func TestProfileStoreConcurrent(t *testing.T) {
	plan := profilePlan(t)
	recompiled := profilePlan(t)
	s := profileCache(0.25, 1, plan, "k")
	model := unitModel(100)
	var wg sync.WaitGroup
	wins := make([]int, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Record("k", plan, []float64{300, 300}, model)
				if s.TakeRecompile("k") {
					wins[w]++
					s.Replace("k", recompiled, 100)
				}
				_ = s.ScheduleCost("k", model)
				_, _ = s.Price("k", model, 2)
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range wins {
		total += n
	}
	if total != 1 {
		t.Fatalf("%d goroutines claimed the recompile, want exactly 1", total)
	}
}

// TestPlanCacheEvictionDropsProfileAndPrice pins the one-entry
// lifetime: evicting a shape drops its profile, its recompile claim and
// its price with its plan, so the shape comes back as a fresh entry.
func TestPlanCacheEvictionDropsProfileAndPrice(t *testing.T) {
	plan := profilePlan(t)
	model := unitModel(100)
	c := NewPlanCache(1, 0.25, 1)
	c.insert("a", plan, 100)
	c.Record("a", plan, []float64{400, 100}, model)
	if ns, ok := c.Price("a", model, 1); !ok || ns != 500 {
		t.Fatalf("price = %v, %v; want 500 (observed add 400 + max 100)", ns, ok)
	}
	if !c.TakeRecompile("a") {
		t.Fatal("diverged shape did not claim its recompile")
	}

	c.insert("b", plan, 100) // evicts "a"
	if c.Jobs("a") != 0 {
		t.Fatal("evicted shape kept its profile")
	}
	if _, ok := c.Price("a", model, 1); ok {
		t.Fatal("evicted shape kept a price")
	}
	if st := c.ProfileStats(); st.Shapes != 0 || st.Jobs != 1 || st.Recompiles != 1 {
		t.Fatalf("profile stats after eviction = %+v, want no profiled shape, 1 job, 1 recompile", st)
	}

	c.insert("a", plan, 100) // evicts "b"; "a" starts afresh
	if ns, ok := c.Price("a", model, 1); !ok || ns != 200 {
		t.Fatalf("re-inserted price = %v, %v; want the static 200", ns, ok)
	}
	c.Record("a", plan, []float64{400, 100}, model)
	if !c.TakeRecompile("a") {
		t.Fatal("re-inserted shape inherited the evicted entry's recompile claim")
	}
}

// TestPlanCacheReplaceKeepsProfile pins what a profile-guided
// recompile keeps: Replace swaps the plan and drops its price, but the
// profile and the claim stay, so TakeRecompile is true at most once
// per cached shape and the next Price reprices the new plan.
func TestPlanCacheReplaceKeepsProfile(t *testing.T) {
	plan := profilePlan(t)
	model := unitModel(100)
	c := NewPlanCache(4, 0.25, 2)
	c.insert("k", plan, 100)
	if ns, _ := c.Price("k", model, 1); ns != 200 {
		t.Fatalf("cold price = %v, want the static 200", ns)
	}
	for i := 0; i < 2; i++ {
		c.Record("k", plan, []float64{400, 100}, model)
	}
	// The price belongs to the plan: new observations do not move it.
	if ns, _ := c.Price("k", model, 1); ns != 200 {
		t.Fatalf("price moved under the same plan: %v, want 200", ns)
	}
	if !c.TakeRecompile("k") {
		t.Fatal("diverged shape did not claim its recompile")
	}
	recompiled := profilePlan(t)
	c.Replace("k", recompiled, 100)
	if got := c.Jobs("k"); got != 2 {
		t.Fatalf("Replace dropped the profile: %d jobs, want 2", got)
	}
	if ns, _ := c.Price("k", model, 1); ns != 500 {
		t.Fatalf("price after Replace = %v, want 500 under the observed costs", ns)
	}
	for i := 0; i < 4; i++ {
		c.Record("k", recompiled, []float64{400, 100}, model)
		if c.TakeRecompile("k") {
			t.Fatal("a replaced shape claimed a second recompile")
		}
	}
	if st := c.ProfileStats(); st.Recompiles != 1 || st.Jobs != 6 || st.Shapes != 1 {
		t.Fatalf("profile stats = %+v, want 1 recompile, 6 jobs, 1 shape", st)
	}
}

// BenchmarkPlanCacheChurn drives a full cache with more shapes than it
// holds: every operation is a miss that inserts a plan, evicts a
// victim (with its profile and price) and records one job.
func BenchmarkPlanCacheChurn(b *testing.B) {
	const capacity, shapes = 128, 1024
	g := New()
	x, _ := g.Input(8)
	y, _ := g.Input(8)
	add, _ := ops.ByName("addition")
	mx, _ := ops.ByName("max")
	s, _ := g.Op(add, x, y)
	r, _ := g.Op(mx, s, x)
	g.MarkRoot(r)
	plan := &Plan{Graph: g, Sched: g.ProgramOrder()}
	keys := make([]string, shapes)
	for i := range keys {
		keys[i] = fmt.Sprintf("shape-%d", i)
	}
	model := unitModel(100)
	opNs := []float64{100, 100}
	c := NewPlanCache(capacity, 0.25, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys[i%shapes]
		c.Do(key, func() *Plan { return plan })
		c.Record(key, plan, opNs, model)
	}
}

// TestScheduleConvergesUnderSkewedCosts is the scheduler-level
// convergence property behind the recompile guard: on a DAG whose
// observed per-op costs are skewed against the static model, the
// schedule built with observed costs — priced by the same
// deterministic bank-limited makespan estimate the recompile path
// uses — is no worse than the statically priced schedule, and a
// recompile that keeps the better of the two can never regress.
func TestScheduleConvergesUnderSkewedCosts(t *testing.T) {
	// One long chain of additions and several independent max nodes.
	// The static model prices max far above addition; the "observed"
	// ground truth inverts that, so static priorities overlap the
	// wrong work.
	g := New()
	a, _ := g.Input(8)
	b, _ := g.Input(8)
	add, max := opDef(t, "addition"), opDef(t, "max")
	chain := a
	for i := 0; i < 6; i++ {
		chain, _ = g.Op(add, chain, b)
	}
	for i := 0; i < 4; i++ {
		m, _ := g.Op(max, a, b)
		g.MarkRoot(m)
	}
	g.MarkRoot(chain)

	static := func(d ops.Def, w, n int) float64 {
		if d.Code == max.Code {
			return 500
		}
		return 10
	}
	observed := func(d ops.Def, w, n int) float64 {
		if d.Code == max.Code {
			return 10
		}
		return 500
	}

	const machines = 2
	staticSched := g.Schedule(static)
	profiledSched := g.Schedule(observed)
	staticSpan := g.EstimateMakespanNs(staticSched, observed, machines)
	profiledSpan := g.EstimateMakespanNs(profiledSched, observed, machines)
	if profiledSpan > staticSpan {
		t.Fatalf("schedule built with observed costs prices worse than the static one under the same ground truth: %.0f > %.0f",
			profiledSpan, staticSpan)
	}
	// Both schedules are topological orders of the same DAG: same node
	// multiset, so a recompile swapping one for the other cannot change
	// results.
	seen := map[NodeID]bool{}
	for _, id := range staticSched {
		seen[id] = true
	}
	if len(staticSched) != len(profiledSched) {
		t.Fatalf("schedules differ in length: %d vs %d", len(staticSched), len(profiledSched))
	}
	for _, id := range profiledSched {
		if !seen[id] {
			t.Fatalf("profiled schedule contains node %d the static one lacks", id)
		}
	}
}
