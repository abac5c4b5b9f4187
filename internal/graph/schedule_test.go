package graph

import (
	"math/rand"
	"testing"

	"simdram/internal/ops"
	"simdram/internal/raceflag"
)

// randomGraph builds a random 8-bit DAG of nOps two-operand operations
// over four inputs, each operation reading recent values more often,
// with every value no operation reads marked a root.
func randomGraph(tb testing.TB, rng *rand.Rand, nOps int) *Graph {
	tb.Helper()
	var defs []ops.Def
	for _, name := range []string{"addition", "subtraction", "max", "min"} {
		d, err := ops.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		defs = append(defs, d)
	}
	g := New()
	var live []NodeID
	for range 4 {
		id, _ := g.Input(8)
		live = append(live, id)
	}
	used := map[NodeID]bool{}
	pick := func() NodeID {
		if rng.Intn(2) == 0 {
			return live[len(live)-1-rng.Intn(4)]
		}
		return live[rng.Intn(len(live))]
	}
	for range nOps {
		a, b := pick(), pick()
		id, err := g.Op(defs[rng.Intn(len(defs))], a, b)
		if err != nil {
			tb.Fatal(err)
		}
		used[a], used[b] = true, true
		live = append(live, id)
	}
	for _, id := range live[4:] {
		if !used[id] {
			g.MarkRoot(id)
		}
	}
	return g
}

// BenchmarkGraphSchedule times the list scheduler on a random 32-op
// DAG under a unit cost model. Its working tables are recycled, so
// the one allocation per call is the schedule it returns.
func BenchmarkGraphSchedule(b *testing.B) {
	g := randomGraph(b, rand.New(rand.NewSource(5)), 32)
	cost := unitModel(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		schedSink = g.Schedule(cost)
	}
}

// schedSink keeps BenchmarkGraphSchedule's calls from being optimized
// away.
var schedSink []NodeID

// TestScheduleAllocBudget gates the scheduler's allocations: the
// schedule it returns, and nothing for its working tables, nor for
// pricing that schedule or the construction-order one.
func TestScheduleAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector allocates; gate runs in the non-race CI job")
	}
	g := randomGraph(t, rand.New(rand.NewSource(5)), 32)
	cost := unitModel(100)
	g.Schedule(cost) // fill the scratch pool
	if allocs := testing.AllocsPerRun(100, func() { g.Schedule(cost) }); allocs > 1 {
		t.Errorf("Schedule allocated %.0f times, want 1 (the schedule)", allocs)
	}
	sched := g.Schedule(cost)
	if allocs := testing.AllocsPerRun(100, func() {
		g.EstimateMakespanNs(sched, cost, 4)
		g.EstimateMakespanNs(nil, cost, 4)
	}); allocs > 0 {
		t.Errorf("EstimateMakespanNs allocated %.0f times, want 0", allocs)
	}
}

// TestEstimateNilScheduleIsProgramOrder pins what admission prices a
// cold shape with: a nil schedule prices ProgramOrder's.
func TestEstimateNilScheduleIsProgramOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for range 20 {
		g := randomGraph(t, rng, 24)
		cost := func(d ops.Def, w, n int) float64 { return float64(1 + int(d.Code)%7) }
		for _, m := range []int{1, 4, 16} {
			if got, want := g.EstimateMakespanNs(nil, cost, m), g.EstimateMakespanNs(g.ProgramOrder(), cost, m); got != want {
				t.Fatalf("machines %d: nil schedule priced %v, ProgramOrder %v", m, got, want)
			}
		}
	}
}
