package logic_test

import (
	"testing"

	"simdram/internal/logic"
	"simdram/internal/testoracle"
)

// Tests for the n-ary (≥3 fanin) gate normalization, which keeps a single
// wide gate so MIG lowering can use n-input templates.

func TestNaryXorConstantFolding(t *testing.T) {
	c := logic.New()
	a := c.Input("a")
	b := c.Input("b")
	one := c.Const(true)
	zero := c.Const(false)

	// XOR(a,b,0) = XOR(a,b); XOR(a,b,1) = !XOR(a,b).
	x := c.Xor(a, b, zero)
	if c.Nodes[x].Kind != logic.KindXor || len(c.Nodes[x].Fanins) != 2 {
		t.Errorf("XOR(a,b,0) should fold to binary XOR, got %v/%d", c.Nodes[x].Kind, len(c.Nodes[x].Fanins))
	}
	nx := c.Xor(a, b, one)
	if nx != c.Not(x) {
		t.Errorf("XOR(a,b,1) should be !XOR(a,b)")
	}
	// XOR(a,1,1) = a.
	if got := c.Xor(a, one, one); got != a {
		t.Errorf("XOR(a,1,1) = node %d, want a", got)
	}
}

func TestNaryXorDuplicateCancellation(t *testing.T) {
	c := logic.New()
	a := c.Input("a")
	b := c.Input("b")
	if got := c.Xor(a, a, b); got != b {
		t.Errorf("XOR(a,a,b) should cancel to b")
	}
	if got, zero := c.Xor(a, a, b, b), c.Const(false); got != zero {
		t.Errorf("XOR(a,a,b,b) should cancel to 0, got node %d", got)
	}
	// Complement pair toggles: XOR(a,!a,b) = !b.
	if got := c.Xor(a, c.Not(a), b); got != c.Not(b) {
		t.Errorf("XOR(a,!a,b) should be !b")
	}
}

func TestNaryAndOrShortCircuit(t *testing.T) {
	c := logic.New()
	a := c.Input("a")
	b := c.Input("b")
	d := c.Input("d")
	one := c.Const(true)
	zero := c.Const(false)

	if got := c.And(a, b, zero, d); got != zero {
		t.Error("AND with a 0 fanin must fold to 0")
	}
	if got := c.And(a, b, one, d); c.Nodes[got].Kind != logic.KindAnd || len(c.Nodes[got].Fanins) != 3 {
		t.Error("AND with a 1 fanin should drop it and stay 3-wide")
	}
	if got := c.Or(a, one, d); got != one {
		t.Error("OR with a 1 fanin must fold to 1")
	}
	if got := c.And(a, b, c.Not(a)); got != zero {
		t.Error("AND(x, …, !x) must fold to 0")
	}
	if got := c.Or(a, b, c.Not(b)); got != one {
		t.Error("OR(x, …, !x) must fold to 1")
	}
	if got := c.And(a, a, b); c.Nodes[got].Kind != logic.KindAnd || len(c.Nodes[got].Fanins) != 2 {
		t.Error("AND(a,a,b) should dedup to AND(a,b)")
	}
}

func TestNarySemanticsExhaustive(t *testing.T) {
	// 4-input gates over all 16 assignments, against direct computation.
	c := logic.New()
	in := make([]int, 4)
	for i := range in {
		in[i] = c.Input("x")
	}
	c.Output(c.And(in...), "and")
	c.Output(c.Or(in...), "or")
	c.Output(c.Xor(in...), "xor")
	for v := 0; v < 16; v++ {
		bits := make([]bool, 4)
		andV, orV, xorV := true, false, false
		for i := range bits {
			bits[i] = (v>>uint(i))&1 == 1
			andV = andV && bits[i]
			orV = orV || bits[i]
			xorV = xorV != bits[i]
		}
		out := testoracle.EvalBits(c.EvalWords, bits)
		if out[0] != andV || out[1] != orV || out[2] != xorV {
			t.Fatalf("assignment %04b: got %v want [%t %t %t]", v, out, andV, orV, xorV)
		}
	}
}
