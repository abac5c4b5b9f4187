package graph

import (
	"reflect"
	"testing"

	"simdram/internal/ops"
)

func def(t *testing.T, name string) ops.Def {
	t.Helper()
	d, err := ops.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func input(t *testing.T, g *Graph, width int) NodeID {
	t.Helper()
	id, err := g.Input(width)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func op(t *testing.T, g *Graph, name string, args ...NodeID) NodeID {
	t.Helper()
	id, err := g.Op(def(t, name), args...)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestOpValidation(t *testing.T) {
	g := New()
	a := input(t, g, 8)
	b := input(t, g, 16)
	if _, err := g.Op(def(t, "addition"), a, b); err == nil {
		t.Fatal("width mismatch accepted")
	}
	if _, err := g.Op(def(t, "addition"), a); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := g.Op(def(t, "and_red"), a); err == nil {
		t.Fatal("1-argument reduction accepted")
	}
	if _, err := g.Op(def(t, "and_red"), a, a, a, a); err == nil {
		t.Fatal(">3 operands accepted (ISA encodes at most 3)")
	}
	sel := input(t, g, 1)
	if _, err := g.Op(def(t, "if_else"), a, a, sel); err != nil {
		t.Fatalf("1-bit selector rejected: %v", err)
	}
	if _, err := g.Op(def(t, "if_else"), a, a, a); err == nil {
		t.Fatal("8-bit selector accepted")
	}
	m := op(t, g, "multiplication", a, a)
	if got := g.Node(m).Width; got != 16 {
		t.Fatalf("multiplication dst width = %d, want 16", got)
	}
}

func TestFoldConstants(t *testing.T) {
	g := New()
	c3, _ := g.Const(3, 8)
	c4, _ := g.Const(4, 8)
	sum := op(t, g, "addition", c3, c4)
	dbl := op(t, g, "addition", sum, sum) // folds once sum is const
	a := input(t, g, 8)
	mixed := op(t, g, "addition", dbl, a) // stays: one arg is a leaf
	g.MarkRoot(mixed)
	if folded := g.FoldConstants(); folded != 2 {
		t.Fatalf("folded %d nodes, want 2", folded)
	}
	if n := g.Node(sum); n.Kind != KindConst || n.Val != 7 {
		t.Fatalf("sum folded to %+v, want const 7", n)
	}
	if n := g.Node(dbl); n.Kind != KindConst || n.Val != 14 {
		t.Fatalf("dbl folded to %+v, want const 14", n)
	}
	if g.Node(mixed).Kind != KindOp {
		t.Fatal("node with a leaf argument folded")
	}
}

func TestFoldMasksToWidth(t *testing.T) {
	g := New()
	c, _ := g.Const(200, 8)
	sum := op(t, g, "addition", c, c) // 400 mod 256 = 144
	g.MarkRoot(sum)
	g.FoldConstants()
	if n := g.Node(sum); n.Val != 144 {
		t.Fatalf("folded value %d, want 144", n.Val)
	}
}

func TestCSE(t *testing.T) {
	g := New()
	a := input(t, g, 8)
	b := input(t, g, 8)
	s1 := op(t, g, "addition", a, b)
	s2 := op(t, g, "addition", a, b) // duplicate
	d := op(t, g, "subtraction", s1, s2)
	g.MarkRoot(d)
	g.MarkRoot(s2)
	if merged := g.CSE(); merged != 1 {
		t.Fatalf("merged %d nodes, want 1", merged)
	}
	if args := g.Node(d).Args(); args[0] != s1 || args[1] != s1 {
		t.Fatalf("subtraction args %v, want both remapped to %d", args, s1)
	}
	if roots := g.Roots(); roots[1] != s1 {
		t.Fatalf("root remapped to %d, want %d", roots[1], s1)
	}
	if !g.Node(s1).Root {
		t.Fatal("canonical node did not inherit the merged duplicate's root mark")
	}
	if g.Node(s2).Root {
		t.Fatal("merged duplicate kept its root mark (breaks slot assignment when DCE is skipped)")
	}
	// Inputs of equal width must never merge: distinct storage.
	g2 := New()
	input(t, g2, 8)
	input(t, g2, 8)
	if merged := g2.CSE(); merged != 0 {
		t.Fatalf("merged %d input nodes, want 0", merged)
	}
}

func TestDCE(t *testing.T) {
	g := New()
	a := input(t, g, 8)
	b := input(t, g, 8)
	live := op(t, g, "addition", a, b)
	deadOp := op(t, g, "subtraction", a, b)
	deadIn := input(t, g, 8)
	g.MarkRoot(live)
	if removed := g.DCE(); removed != 1 {
		t.Fatalf("removed %d nodes, want 1 (dead inputs are uncounted)", removed)
	}
	if g.Alive(deadOp) {
		t.Fatal("unreachable op survived DCE")
	}
	if g.Alive(deadIn) {
		t.Fatal("unreachable input not marked dead")
	}
	if !g.Alive(live) || !g.Alive(a) || !g.Alive(b) {
		t.Fatal("reachable node marked dead")
	}
	if got := g.ProgramOrder(); !reflect.DeepEqual(got, []NodeID{live}) {
		t.Fatalf("program order %v, want [%d]", got, live)
	}
}

func TestScheduleCostPriority(t *testing.T) {
	g := New()
	a := input(t, g, 8)
	b := input(t, g, 8)
	cheap := op(t, g, "addition", a, b)
	expensive := op(t, g, "multiplication", a, b)
	g.MarkRoot(cheap)
	g.MarkRoot(expensive)
	cost := func(d ops.Def, w, n int) float64 {
		if d.Name == "multiplication" {
			return 100
		}
		return 1
	}
	sched := g.Schedule(cost)
	if len(sched) != 2 || sched[0] != expensive {
		t.Fatalf("schedule %v, want the expensive node first", sched)
	}
	// Unit costs tie-break by ID: construction order.
	if sched := g.Schedule(nil); sched[0] != cheap {
		t.Fatalf("unit-cost schedule %v, want ID order", sched)
	}
	// Determinism.
	for i := 0; i < 5; i++ {
		if got := g.Schedule(cost); !reflect.DeepEqual(got, sched) {
			t.Fatalf("schedule not deterministic: %v vs %v", got, sched)
		}
	}
}

func TestScheduleRespectsDependencies(t *testing.T) {
	g := New()
	a := input(t, g, 8)
	b := input(t, g, 8)
	s1 := op(t, g, "addition", a, b)
	s2 := op(t, g, "addition", s1, b)
	s3 := op(t, g, "addition", s2, a)
	g.MarkRoot(s3)
	sched := g.Schedule(func(ops.Def, int, int) float64 { return 5 })
	pos := map[NodeID]int{}
	for i, id := range sched {
		pos[id] = i
	}
	if !(pos[s1] < pos[s2] && pos[s2] < pos[s3]) {
		t.Fatalf("schedule %v violates chain order", sched)
	}
}

func TestAssignReusesSlots(t *testing.T) {
	g := New()
	a := input(t, g, 16)
	b := input(t, g, 16)
	// Chain of 4: three intermediates + one root. Each intermediate dies
	// at its single user, but its slot frees only after the user claims
	// its own (destinations must not alias sources), so the chain
	// ping-pongs between two slots instead of allocating three.
	t1 := op(t, g, "addition", a, b)
	t2 := op(t, g, "addition", t1, b)
	t3 := op(t, g, "addition", t2, a)
	root := op(t, g, "addition", t3, b)
	g.MarkRoot(root)
	sched := g.ProgramOrder()
	asg := Assign(g, sched, true)
	if asg.NaiveRows != 3*16 {
		t.Fatalf("naive rows %d, want 48", asg.NaiveRows)
	}
	if asg.PooledRows != 2*16 {
		t.Fatalf("pooled rows %d, want 32 (two ping-pong slots)", asg.PooledRows)
	}
	if asg.SlotOf[root] >= 0 {
		t.Fatal("root assigned a pooled slot")
	}
	if asg.SlotOf[t1] != asg.SlotOf[t3] {
		t.Fatalf("t1 slot %d not reused by t3 (slot %d)", asg.SlotOf[t1], asg.SlotOf[t3])
	}
	if asg.SlotOf[t1] == asg.SlotOf[t2] {
		t.Fatal("t2 reuses the slot of its own source t1")
	}
	// Without reuse every intermediate is fresh.
	naive := Assign(g, sched, false)
	if naive.PooledRows != naive.NaiveRows {
		t.Fatalf("no-reuse pooled rows %d != naive %d", naive.PooledRows, naive.NaiveRows)
	}
}

func TestAssignWidthSegregation(t *testing.T) {
	g := New()
	a := input(t, g, 8)
	b := input(t, g, 8)
	p := op(t, g, "multiplication", a, b) // 16-bit intermediate
	pr := op(t, g, "addition", p, p)      // root; kills p
	q := op(t, g, "addition", a, b)       // 8-bit intermediate allocated after p died
	qr := op(t, g, "addition", q, a)      // root; kills q
	g.MarkRoot(pr)
	g.MarkRoot(qr)
	asg := Assign(g, g.ProgramOrder(), true)
	// p's freed 16-bit slot must not serve the 8-bit q: slots are
	// width-segregated, so q gets a fresh 8-bit slot.
	if asg.SlotOf[p] == asg.SlotOf[q] {
		t.Fatal("8-bit intermediate reused a 16-bit slot")
	}
	if asg.PooledRows != 16+8 {
		t.Fatalf("pooled rows %d, want 24", asg.PooledRows)
	}
}

func TestLowerEmitsProgramWithSlotHazards(t *testing.T) {
	g := New()
	a := input(t, g, 16)
	b := input(t, g, 16)
	t1 := op(t, g, "addition", a, b)
	t2 := op(t, g, "addition", t1, b)
	t3 := op(t, g, "addition", t2, a)
	root := op(t, g, "addition", t3, b)
	g.MarkRoot(root)
	sched := g.ProgramOrder()
	asg := Assign(g, sched, true)
	// Handles: inputs 1,2; slots 10+slot; root 20.
	handle := func(id NodeID) (uint16, error) {
		switch id {
		case a:
			return 1, nil
		case b:
			return 2, nil
		case root:
			return 20, nil
		}
		return 10 + uint16(asg.SlotOf[id]), nil
	}
	prog, err := Lower(g, sched, handle, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(prog) != 4 {
		t.Fatalf("program has %d instructions, want 4", len(prog))
	}
	if prog[0].Dst != 10 || prog[0].Src[0] != 1 || prog[0].Src[1] != 2 {
		t.Fatalf("first instruction %v binds wrong handles", prog[0])
	}
	if prog[3].Dst != 20 {
		t.Fatalf("root instruction writes handle %d, want 20", prog[3].Dst)
	}
	// t3 reuses t1's slot: instruction 2 writes the handle instruction 1
	// read, a WAR hazard Deps must order.
	deps := prog.Deps()
	found := false
	for _, d := range deps[2] {
		if d == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("deps %v missing the WAR edge 1→2 created by slot reuse", deps)
	}
	for _, in := range prog {
		if in.Size != 64 || in.Width != 16 {
			t.Fatalf("instruction %v has wrong size/width", in)
		}
	}
}
