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
		c.insert(k, plan)
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
}

// TestProfileStoreConcurrent exercises Record/TakeRecompile/
// ScheduleCost/Replace/Do under -race and proves at most one recompile
// is claimed per shape and that every lookup returns a resident plan.
func TestProfileStoreConcurrent(t *testing.T) {
	plan := profilePlan(t)
	g := buildAddMax(t, 8, "max", "max")
	recompiled := &Plan{Graph: g, Sched: g.ProgramOrder()}
	s := profileCache(0.25, 1, plan, "k")
	model := addMaxModel(t)
	var wg sync.WaitGroup
	wins := make([]int, 8)
	bad := make([]bool, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Record("k", plan, []float64{300, 300}, model)
				if s.TakeRecompile("k") {
					wins[w]++
				}
				if i%2 == w%2 {
					s.Replace("k", recompiled)
				} else {
					s.Replace("k", plan)
				}
				_ = s.ScheduleCost("k", model)
				if p, hit := s.Do("k", func() *Plan { return nil }); !hit || (p != plan && p != recompiled) {
					bad[w] = true
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for w, n := range wins {
		total += n
		if bad[w] {
			t.Fatalf("goroutine %d looked up a plan that was never resident", w)
		}
	}
	if total != 1 {
		t.Fatalf("%d goroutines claimed the recompile, want exactly 1", total)
	}
}

// addMaxModel prices addition at 100 ns and max at 300 ns, so plans of
// different op mixes price apart.
func addMaxModel(t *testing.T) CostFn {
	mx := opDef(t, "max")
	return func(d ops.Def, _, _ int) float64 {
		if d.Code == mx.Code {
			return 300
		}
		return 100
	}
}

// TestPlanCacheEvictionDropsProfile pins the one-entry lifetime:
// evicting a shape drops its profile and its recompile claim with its
// plan, so the shape comes back as a fresh entry.
func TestPlanCacheEvictionDropsProfile(t *testing.T) {
	plan := profilePlan(t)
	model := unitModel(100)
	c := NewPlanCache(1, 0.25, 1)
	c.insert("a", plan)
	c.Record("a", plan, []float64{400, 100}, model)
	if !c.TakeRecompile("a") {
		t.Fatal("diverged shape did not claim its recompile")
	}

	c.insert("b", plan) // evicts "a"
	if c.Jobs("a") != 0 {
		t.Fatal("evicted shape kept its profile")
	}
	if st := c.ProfileStats(); st.Shapes != 0 || st.Jobs != 1 || st.Recompiles != 1 {
		t.Fatalf("profile stats after eviction = %+v, want no profiled shape, 1 job, 1 recompile", st)
	}

	c.insert("a", plan) // evicts "b"; "a" starts afresh
	c.Record("a", plan, []float64{400, 100}, model)
	if !c.TakeRecompile("a") {
		t.Fatal("re-inserted shape inherited the evicted entry's recompile claim")
	}
}

// TestPlanCacheReplaceKeepsProfile pins what a profile-guided
// recompile keeps: Replace swaps the plan, but the profile and the
// claim stay, so TakeRecompile is true at most once per cached shape,
// and the next lookup returns the new plan.
func TestPlanCacheReplaceKeepsProfile(t *testing.T) {
	plan := profilePlan(t)
	model := addMaxModel(t)
	c := NewPlanCache(4, 0.25, 2)
	c.insert("k", plan)
	for i := 0; i < 2; i++ {
		c.Record("k", plan, []float64{400, 100}, model)
	}
	if !c.TakeRecompile("k") {
		t.Fatal("diverged shape did not claim its recompile")
	}
	g := buildAddMax(t, 8, "max", "max")
	recompiled := &Plan{Graph: g, Sched: g.ProgramOrder()}
	c.Replace("k", recompiled)
	if got := c.Jobs("k"); got != 2 {
		t.Fatalf("Replace dropped the profile: %d jobs, want 2", got)
	}
	if p, hit := c.Do("k", func() *Plan { return nil }); !hit || p != recompiled {
		t.Fatalf("lookup after Replace = %p (hit %v), want the new plan %p", p, hit, recompiled)
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
// victim (with its profile) and records one job.
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
