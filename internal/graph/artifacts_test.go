package graph_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/graph"
	"simdram/internal/ops"
)

// artifactsDigest is the FNV-64a digest TestCompileArtifactsPinned
// computes, recorded from the string-keyed CSE and map-based passes
// and hazard analysis the current ones replaced. It changes only when
// a pass changes what it emits.
const artifactsDigest = "c416e7ed1a223020"

// TestCompileArtifactsPinned runs the whole compile pipeline (fold,
// CSE, DCE, the cost-driven list schedule under the static cost
// model, slot assignment, lowering and hazard analysis) over 300
// seeded random DAGs and pins a digest of everything it emits: pass
// counts, roots, the schedule, the slot assignment, the lowered
// program and its dependence edges.
func TestCompileArtifactsPinned(t *testing.T) {
	catalog := fuzzOps()
	timing := dram.DDR4_2400()
	cost := func(d ops.Def, w, n int) float64 {
		c, err := ops.CostNs(d, w, n, ops.VariantSIMDRAM, timing)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	h := fnv.New64a()
	put := func(vs ...any) { fmt.Fprintln(h, vs...) }
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 20+rng.Intn(60))
		rng.Read(data)
		g := buildFuzzDAG(data, catalog)
		put("passes", g.FoldConstants(), g.CSE(), g.DCE(), g.Roots())
		sched := g.Schedule(cost)
		asg := graph.Assign(g, sched, true)
		put("sched", sched)
		for id, slot := range asg.SlotOf {
			if slot >= 0 {
				put("slot", graph.NodeID(id), slot)
			}
		}
		put("slots", asg.SlotWidths, asg.NaiveRows, asg.PooledRows)
		handle := func(id graph.NodeID) (uint16, error) {
			if n := g.Node(id); n.Kind == graph.KindOp && !n.Root {
				return uint16(300 + asg.SlotOf[id]), nil
			}
			return uint16(1 + id), nil
		}
		prog, err := graph.Lower(nil, g, sched, handle, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range prog {
			put("in", in.Encode())
		}
		put("deps", prog.Deps())
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != artifactsDigest {
		t.Fatalf("compile artifacts digest %s, want %s", got, artifactsDigest)
	}
}
