package mig_test

import (
	"math/rand"
	"testing"

	"simdram/internal/logic"
	"simdram/internal/mig"
	"simdram/internal/testoracle"
)

func TestLitEncoding(t *testing.T) {
	l := mig.MakeLit(42, true)
	if l.Node() != 42 || !l.Neg() {
		t.Errorf("MakeLit(42,true) round trip failed: node=%d neg=%t", l.Node(), l.Neg())
	}
	if l.Not().Neg() {
		t.Errorf("Not should clear complement")
	}
	if mig.ConstTrue != mig.ConstFalse.Not() {
		t.Errorf("ConstTrue should be !ConstFalse")
	}
}

func TestMajAxioms(t *testing.T) {
	m := mig.New(3)
	a, b, c := m.Input(0), m.Input(1), m.Input(2)

	if got := m.Maj(a, a, b); got != a {
		t.Errorf("MAJ(a,a,b) = %v, want a", got)
	}
	if got := m.Maj(a, a.Not(), b); got != b {
		t.Errorf("MAJ(a,!a,b) = %v, want b", got)
	}
	x := m.Maj(a, b, c)
	y := m.Maj(c, a, b)
	if x != y {
		t.Errorf("MAJ should be commutative under hashing")
	}
	// Self-duality: MAJ(!a,!b,!c) = !MAJ(a,b,c).
	z := m.Maj(a.Not(), b.Not(), c.Not())
	if z != x.Not() {
		t.Errorf("self-duality not canonicalized: %v vs %v", z, x.Not())
	}
	if m.Size() != 1 {
		t.Errorf("expected exactly 1 MAJ node, have %d", m.Size())
	}
}

func TestAndOrXorTruthTables(t *testing.T) {
	m := mig.New(2)
	a, b := m.Input(0), m.Input(1)
	m.AddOutput(m.And(a, b), "and")
	m.AddOutput(m.Or(a, b), "or")
	m.AddOutput(m.Xor(a, b), "xor")
	for av := 0; av < 2; av++ {
		for bv := 0; bv < 2; bv++ {
			out := testoracle.EvalBits(m.EvalWords, []bool{av == 1, bv == 1})
			if out[0] != (av == 1 && bv == 1) {
				t.Errorf("AND(%d,%d) wrong", av, bv)
			}
			if out[1] != (av == 1 || bv == 1) {
				t.Errorf("OR(%d,%d) wrong", av, bv)
			}
			if out[2] != ((av ^ bv) == 1) {
				t.Errorf("XOR(%d,%d) wrong", av, bv)
			}
		}
	}
}

func TestXor3FullAdderTemplate(t *testing.T) {
	m := mig.New(3)
	a, b, c := m.Input(0), m.Input(1), m.Input(2)
	sum := m.Xor3(a, b, c)
	carry := m.Maj(a, b, c)
	m.AddOutput(sum, "s")
	m.AddOutput(carry, "c")
	// Full adder must cost exactly 3 MAJ nodes (carry shared with sum).
	if m.Size() != 3 {
		t.Errorf("full adder size = %d MAJ, want 3", m.Size())
	}
	for v := 0; v < 8; v++ {
		av, bv, cv := v&1, (v>>1)&1, (v>>2)&1
		out := testoracle.EvalBits(m.EvalWords, []bool{av == 1, bv == 1, cv == 1})
		total := av + bv + cv
		if out[0] != (total%2 == 1) || out[1] != (total >= 2) {
			t.Errorf("full adder wrong at %d%d%d: %v", av, bv, cv, out)
		}
	}
}

func TestFromCircuitAdder(t *testing.T) {
	c := logic.New()
	a := c.InputBus("a", 8)
	b := c.InputBus("b", 8)
	carry := c.Const(false)
	sum := make([]int, 8)
	for i := 0; i < 8; i++ {
		sum[i] = c.Xor(c.Xor(a[i], b[i]), carry)
		carry = c.Maj(a[i], b[i], carry)
	}
	c.OutputBus(sum, "s")
	m, err := mig.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := testoracle.VerifyAgainstCircuit(m, c, 32, 1); err != nil {
		t.Fatal(err)
	}
}

func TestCompactRemovesDeadNodes(t *testing.T) {
	m := mig.New(3)
	a, b, c := m.Input(0), m.Input(1), m.Input(2)
	keep := m.Maj(a, b, c)
	_ = m.And(a, b) // dead
	_ = m.Or(b, c)  // dead
	m.AddOutput(keep, "out")
	if m.Size() != 3 {
		t.Fatalf("setup: size = %d, want 3", m.Size())
	}
	removed := m.Compact()
	if removed != 2 {
		t.Errorf("Compact removed %d, want 2", removed)
	}
	if m.Size() != 1 {
		t.Errorf("size after compact = %d, want 1", m.Size())
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
	out := testoracle.EvalBits(m.EvalWords, []bool{true, true, false})
	if !out[0] {
		t.Error("semantics changed by Compact")
	}
}

// buildRandomMIG constructs a random MIG over n inputs for property tests.
func buildRandomMIG(rng *rand.Rand, nIn, nGates int) *mig.MIG {
	m := mig.New(nIn)
	lits := []mig.Lit{mig.ConstFalse, mig.ConstTrue}
	for i := 0; i < nIn; i++ {
		lits = append(lits, m.Input(i))
	}
	pick := func() mig.Lit {
		l := lits[rng.Intn(len(lits))]
		if rng.Intn(2) == 0 {
			return l.Not()
		}
		return l
	}
	for g := 0; g < nGates; g++ {
		lits = append(lits, m.Maj(pick(), pick(), pick()))
	}
	nOut := 1 + rng.Intn(3)
	for o := 0; o < nOut; o++ {
		m.AddOutput(lits[len(lits)-1-o], "o")
	}
	return m
}

func TestOptimizePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		m := buildRandomMIG(rng, 2+rng.Intn(8), 5+rng.Intn(120))
		ref := mig.Snapshot(m) // snapshot semantics
		stats := m.Optimize(mig.DefaultOptimize())
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: invalid after optimize: %v", trial, err)
		}
		if stats.SizeAfter > stats.SizeBefore {
			t.Fatalf("trial %d: optimize grew the graph %d → %d", trial, stats.SizeBefore, stats.SizeAfter)
		}
		if err := testoracle.VerifyEquivalent(ref, m, 48, int64(trial)); err != nil {
			t.Fatalf("trial %d: optimize changed semantics: %v", trial, err)
		}
	}
}

func TestOptimizeFindsDistributivity(t *testing.T) {
	// MAJ(MAJ(x,y,u), MAJ(x,y,v), z) must shrink from 3 MAJ to 2.
	m := mig.New(5)
	x, y, u, v, z := m.Input(0), m.Input(1), m.Input(2), m.Input(3), m.Input(4)
	p := m.Maj(x, y, u)
	q := m.Maj(x, y, v)
	m.AddOutput(m.Maj(p, q, z), "out")
	ref := mig.Snapshot(m)
	stats := m.Optimize(mig.DefaultOptimize())
	if stats.SizeAfter != 2 {
		t.Errorf("distributivity: size = %d, want 2 (before=%d)", stats.SizeAfter, stats.SizeBefore)
	}
	if err := testoracle.VerifyEquivalent(ref, m, 8, 3); err != nil {
		t.Error(err)
	}
}

func TestOptimizeRelevanceFolds(t *testing.T) {
	// MAJ(x, y, MAJ(x, v, w)): substituting x→!y inside cannot fold here,
	// but MAJ(x, y, MAJ(x, !y, w)) folds the inner node to w.
	m := mig.New(3)
	x, y, w := m.Input(0), m.Input(1), m.Input(2)
	inner := m.Maj(x, y.Not(), w)
	m.AddOutput(m.Maj(x, y, inner), "out")
	ref := mig.Snapshot(m)
	stats := m.Optimize(mig.DefaultOptimize())
	if stats.SizeAfter >= stats.SizeBefore {
		t.Errorf("relevance: expected shrink, got %d → %d", stats.SizeBefore, stats.SizeAfter)
	}
	if err := testoracle.VerifyEquivalent(ref, m, 8, 4); err != nil {
		t.Error(err)
	}
}

func TestOptimizeReducesRealCircuits(t *testing.T) {
	// An AND/OR-built comparator has redundancy the rewriter should find
	// or at least not worsen.
	c := logic.New()
	a := c.InputBus("a", 8)
	b := c.InputBus("b", 8)
	// a > b, ripple from MSB.
	gt := c.Const(false)
	eq := c.Const(true)
	for i := 7; i >= 0; i-- {
		bitGt := c.And(a[i], c.Not(b[i]))
		gt = c.Or(gt, c.And(eq, bitGt))
		eq = c.And(eq, c.Not(c.Xor(a[i], b[i])))
	}
	c.Output(gt, "gt")
	m, err := mig.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Size()
	m.Optimize(mig.DefaultOptimize())
	if m.Size() > before {
		t.Errorf("optimizer grew comparator: %d → %d", before, m.Size())
	}
	if err := testoracle.VerifyAgainstCircuit(m, c, 64, 7); err != nil {
		t.Fatal(err)
	}
}

func TestInverterCount(t *testing.T) {
	m := mig.New(2)
	a, b := m.Input(0), m.Input(1)
	m.AddOutput(m.Maj(a.Not(), b, mig.ConstFalse), "x")
	if got := m.InverterCount(); got != 1 {
		t.Errorf("InverterCount = %d, want 1", got)
	}
}
