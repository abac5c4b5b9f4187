package graph_test

import (
	"cmp"
	"slices"
	"testing"

	"simdram/internal/graph"
	"simdram/internal/ops"
	"simdram/internal/verify"
)

// fuzzOps is the width-preserving slice of the catalog the fuzz
// builder draws from: binary ops whose destination and sources all
// share the element width, plus the N-ary reductions — enough to
// exercise folding, CSE, scheduling, slot reuse, and lowering without
// having to solve width constraints while decoding fuzz bytes.
func fuzzOps() []ops.Def {
	const w = 8
	var out []ops.Def
	for _, d := range ops.Catalog() {
		switch d.Arity {
		case 2:
			ws := d.SourceWidths(w, 2)
			if d.DstWidth(w) == w && ws[0] == w && ws[1] == w {
				out = append(out, d)
			}
		case -1:
			if d.DstWidth(w) == w {
				out = append(out, d)
			}
		}
	}
	return out
}

// buildFuzzDAG decodes a byte string into a DAG over width-8 nodes:
// each byte pair picks an operation and its operands from the nodes
// built so far. The same bytes always build the same graph.
func buildFuzzDAG(data []byte, catalog []ops.Def) *graph.Graph {
	const width = 8
	g := graph.New()
	var nodes []graph.NodeID
	for i := 0; i < 3; i++ {
		id, err := g.Input(width)
		if err != nil {
			panic(err)
		}
		nodes = append(nodes, id)
	}
	for i := 0; i+1 < len(data) && g.Len() < 40; i += 2 {
		sel, pick := data[i], data[i+1]
		switch sel % 8 {
		case 0: // constant leaf
			id, err := g.Const(uint64(pick), width)
			if err != nil {
				panic(err)
			}
			nodes = append(nodes, id)
		case 1: // extra root on an existing node
			g.MarkRoot(nodes[int(pick)%len(nodes)])
		default: // operation node
			d := catalog[int(sel)%len(catalog)]
			arity := d.Arity
			if arity < 0 {
				arity = 2 + int(pick)%2
			}
			args := make([]graph.NodeID, arity)
			for k := range args {
				args[k] = nodes[(int(pick)+k*7)%len(nodes)]
			}
			id, err := g.Op(d, args...)
			if err != nil {
				panic(err) // width-preserving catalog: every pick must be legal
			}
			nodes = append(nodes, id)
		}
	}
	g.MarkRoot(nodes[len(nodes)-1])
	return g
}

// lowerForOracle runs the whole optimization pipeline on the DAG and
// lowers it with synthetic handles, returning the program plus the
// verifier's object table (leaf handles defined, op handles not).
func lowerForOracle(t *testing.T, g *graph.Graph) (progLen int) {
	t.Helper()
	g.FoldConstants()
	g.CSE()
	g.DCE()
	sched := g.ProgramOrder()
	asg := graph.Assign(g, sched, true)

	const (
		leafBase = 1   // inputs and constants: 1 + node ID
		slotBase = 300 // pooled slots: slotBase + slot index
		rootBase = 600 // root results: rootBase + node ID
	)
	byHandle := map[uint16]verify.Object{}
	handle := func(id graph.NodeID) (uint16, error) {
		n := g.Node(id)
		switch {
		case n.Kind != graph.KindOp:
			h := uint16(leafBase + int(id))
			byHandle[h] = verify.Object{Width: n.Width, Defined: true}
			return h, nil
		case n.Root:
			h := uint16(rootBase + int(id))
			byHandle[h] = verify.Object{Width: n.Width}
			return h, nil
		default:
			slot := asg.SlotOf[id]
			h := uint16(slotBase + slot)
			byHandle[h] = verify.Object{Width: asg.SlotWidths[slot]}
			return h, nil
		}
	}
	prog, err := graph.Lower(nil, g, sched, handle, 64)
	if err != nil {
		t.Fatalf("lowering a valid fuzz DAG failed: %v", err)
	}
	if len(prog) == 0 {
		return 0
	}
	// The verifier is the oracle: every program the optimize → schedule
	// → assign → lower pipeline emits must pass the full IR check,
	// including def-before-use over reused slots and the hazard
	// cross-check against the scheduler's dependence graph.
	objects := make([]verify.Object, 0, len(byHandle))
	for h, o := range byHandle {
		o.Handle = h
		objects = append(objects, o)
	}
	slices.SortFunc(objects, func(a, b verify.Object) int { return cmp.Compare(a.Handle, b.Handle) })
	if err := verify.Program(prog, verify.Options{Objects: objects, Deps: prog.Deps()}); err != nil {
		t.Fatalf("lowered program failed verification: %v\nprogram: %v", err, prog)
	}
	return len(prog)
}

// FuzzCanonicalKey checks two invariants over byte-driven DAGs: the
// canonical key is deterministic (the plan cache's correctness rests
// on equal shapes hashing equal), and every DAG the builder produces
// survives the full compile pipeline with the IR verifier as oracle.
func FuzzCanonicalKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0})
	f.Add([]byte{2, 0, 3, 1, 4, 2, 1, 0})
	f.Add([]byte{0, 7, 2, 3, 2, 3, 5, 1, 7, 2, 1, 1})
	f.Add([]byte{0, 7, 0, 7, 2, 9, 2, 9, 6, 4, 6, 4, 1, 5})

	catalog := fuzzOps()
	if len(catalog) < 4 {
		f.Fatalf("width-preserving catalog too small: %d ops", len(catalog))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g1 := buildFuzzDAG(data, catalog)
		g2 := buildFuzzDAG(data, catalog)
		k1, k2 := g1.CanonicalKey(""), g2.CanonicalKey("")
		if k1 != k2 {
			t.Fatalf("canonical key not deterministic:\n%q\n%q", k1, k2)
		}
		lowerForOracle(t, g1)
		// Optimization must not change the canonical key's input: g2 is
		// still the un-lowered twin, so its key pins the pre-pass shape.
		if g2.CanonicalKey("") != k1 {
			t.Fatal("canonical key changed without the graph changing")
		}
	})
}
