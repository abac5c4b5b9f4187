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
// pricing that schedule.
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
		g.SerialNs(sched, cost, 4)
	}); allocs > 0 {
		t.Errorf("SerialNs allocated %.0f times, want 0", allocs)
	}
}

// TestSerialNsSumsInScheduleOrder pins the serial price against a sum
// computed by hand: every instruction runs rounds times back to back,
// whatever the graph's parallelism, and the terms are added in
// schedule order — the order the control unit's finish times grow in.
func TestSerialNsSumsInScheduleOrder(t *testing.T) {
	// Two independent chains: a bank-overlap model would price them
	// below the sum; the serial price is the sum.
	g := New()
	a, _ := g.Input(8)
	b, _ := g.Input(8)
	add, mx := opDef(t, "addition"), opDef(t, "max")
	x, _ := g.Op(add, a, b)
	y, _ := g.Op(mx, a, b)
	z, _ := g.Op(add, x, y)
	w, _ := g.Op(mx, a, a)
	g.MarkRoot(z)
	g.MarkRoot(w)
	cost := func(d ops.Def, _, _ int) float64 {
		if d.Code == add.Code {
			return 0.1
		}
		return 0.7
	}
	const rounds = 3
	sched := []NodeID{w, y, x, z}
	want := 0.0
	for _, c := range []float64{0.7, 0.7, 0.1, 0.1} {
		want += c * rounds
	}
	if got := g.SerialNs(sched, cost, rounds); got != want {
		t.Fatalf("SerialNs = %v, want the in-order sum %v", got, want)
	}
}
