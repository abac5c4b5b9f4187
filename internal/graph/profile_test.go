package graph

import (
	"fmt"
	"math/rand"
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

func TestProfileStoreDivergenceTriggersOnce(t *testing.T) {
	s := NewProfileStore(0.25, 3, 16)
	plan := profilePlan(t)
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
	st := s.Stats()
	if st.Recompiles != 1 || st.Shapes != 2 || st.Jobs != 8 {
		t.Fatalf("stats = %+v, want 1 recompile over 2 shapes / 8 jobs", st)
	}
	if got := s.Jobs("skew"); got != 3 {
		t.Fatalf("Jobs(skew) = %d, want 3", got)
	}
}

func TestProfileStoreScheduleCost(t *testing.T) {
	s := NewProfileStore(0.25, 1, 16)
	plan := profilePlan(t)
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
}

func TestProfileStoreRecordMismatchIgnored(t *testing.T) {
	s := NewProfileStore(0.25, 1, 16)
	plan := profilePlan(t)
	s.Record("k", plan, []float64{1}, unitModel(1))   // wrong length
	s.Record("k", plan, nil, unitModel(1))            // empty
	s.Record("k", nil, []float64{1, 1}, unitModel(1)) // no plan
	s.Record("k", plan, []float64{1, 1}, nil)         // no model
	if st := s.Stats(); st.Jobs != 0 || st.Shapes != 0 {
		t.Fatalf("malformed records were folded in: %+v", st)
	}
}

func TestProfileStoreNilSafe(t *testing.T) {
	var s *ProfileStore
	s.Record("k", profilePlan(t), []float64{1, 1}, unitModel(1))
	if s.TakeRecompile("k") {
		t.Fatal("nil store asked for a recompile")
	}
	if got := s.ScheduleCost("k", unitModel(5))(opDef(t, "addition"), 8, 2); got != 5 {
		t.Fatalf("nil store ScheduleCost = %v, want base", got)
	}
	if s.Jobs("k") != 0 || s.Stats() != (ProfileStats{}) {
		t.Fatal("nil store reported non-zero state")
	}
	if NewProfileStore(-1, 1, 16) != nil {
		t.Fatal("negative threshold must disable the store")
	}
}

func TestProfileStoreCapDropsColdest(t *testing.T) {
	s := NewProfileStore(0.25, 1, 2)
	plan := profilePlan(t)
	model := unitModel(100)
	s.Record("busy", plan, []float64{100, 100}, model)
	s.Record("busy", plan, []float64{100, 100}, model)
	s.Record("quiet", plan, []float64{100, 100}, model)
	s.Record("new", plan, []float64{100, 100}, model) // evicts "quiet" (fewest jobs)
	if got := s.Jobs("busy"); got != 2 {
		t.Fatalf("busy shape dropped: jobs = %d, want 2", got)
	}
	if got := s.Jobs("quiet"); got != 0 {
		t.Fatalf("coldest shape retained: jobs = %d, want 0", got)
	}
	if st := s.Stats(); st.Shapes != 2 {
		t.Fatalf("shapes = %d, want cap 2", st.Shapes)
	}

	// A seeded random Record sequence at capacity: a reference model
	// tracks every shape's job count, and each time a new shape arrives
	// at the cap, the shape a linear scan picks (fewest jobs, then
	// smallest key) is the one the store drops.
	const capShapes = 16
	s = NewProfileStore(0.25, 1, capShapes)
	ref := map[string]int{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("k%03d", rng.Intn(40))
		victim := ""
		if _, ok := ref[key]; !ok && len(ref) >= capShapes {
			for k, jobs := range ref {
				if victim == "" || jobs < ref[victim] || (jobs == ref[victim] && k < victim) {
					victim = k
				}
			}
			delete(ref, victim)
		}
		ref[key]++
		s.Record(key, plan, []float64{100, 100}, model)
		if victim != "" && s.Jobs(victim) != 0 {
			t.Fatalf("record %d (%s): the scan drops %s, the store kept it", i, key, victim)
		}
		if st := s.Stats(); st.Shapes != len(ref) {
			t.Fatalf("record %d: %d shapes retained, want %d", i, st.Shapes, len(ref))
		}
	}
	for k, jobs := range ref {
		if got := s.Jobs(k); got != jobs {
			t.Fatalf("shape %s: %d jobs, want %d", k, got, jobs)
		}
	}
}

// TestProfileStoreConcurrent exercises Record/TakeRecompile/
// ScheduleCost under -race and proves at most one recompile is claimed
// per shape.
func TestProfileStoreConcurrent(t *testing.T) {
	s := NewProfileStore(0.25, 1, 16)
	plan := profilePlan(t)
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
				}
				_ = s.ScheduleCost("k", model)
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
