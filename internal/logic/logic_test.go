package logic_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"simdram/internal/logic"
	"simdram/internal/testoracle"
)

func TestConstFolding(t *testing.T) {
	c := logic.New()
	a := c.Input("a")
	one := c.Const(true)
	zero := c.Const(false)

	if got := c.And(a, one); got != a {
		t.Errorf("AND(a,1) = node %d, want a (%d)", got, a)
	}
	if got := c.And(a, zero); got != zero {
		t.Errorf("AND(a,0) = node %d, want 0 (%d)", got, zero)
	}
	if got := c.Or(a, zero); got != a {
		t.Errorf("OR(a,0) = node %d, want a", got)
	}
	if got := c.Or(a, one); got != one {
		t.Errorf("OR(a,1) = node %d, want 1", got)
	}
	if got := c.Xor(a, zero); got != a {
		t.Errorf("XOR(a,0) = node %d, want a", got)
	}
	if got := c.Xor(a, a); got != zero {
		t.Errorf("XOR(a,a) = node %d, want 0", got)
	}
	if got := c.Xor(a, one); got != c.Not(a) {
		t.Errorf("XOR(a,1) = node %d, want !a", got)
	}
	if got := c.Not(c.Not(a)); got != a {
		t.Errorf("!!a = node %d, want a", got)
	}
	if got := c.And(a, c.Not(a)); got != zero {
		t.Errorf("AND(a,!a) = node %d, want 0", got)
	}
	if got := c.Or(a, c.Not(a)); got != one {
		t.Errorf("OR(a,!a) = node %d, want 1", got)
	}
}

func TestMajFolding(t *testing.T) {
	c := logic.New()
	a := c.Input("a")
	b := c.Input("b")
	d := c.Input("d")
	one := c.Const(true)
	zero := c.Const(false)

	if got := c.Maj(a, a, b); got != a {
		t.Errorf("MAJ(a,a,b) should fold to a")
	}
	if got := c.Maj(a, c.Not(a), b); got != b {
		t.Errorf("MAJ(a,!a,b) should fold to b")
	}
	and := c.Maj(a, b, zero)
	if c.Nodes[and].Kind != logic.KindAnd {
		t.Errorf("MAJ(a,b,0) should fold to AND, got %v", c.Nodes[and].Kind)
	}
	or := c.Maj(a, b, one)
	if c.Nodes[or].Kind != logic.KindOr {
		t.Errorf("MAJ(a,b,1) should fold to OR, got %v", c.Nodes[or].Kind)
	}
	m := c.Maj(a, b, d)
	if c.Nodes[m].Kind != logic.KindMaj {
		t.Errorf("MAJ(a,b,d) should be a MAJ gate")
	}
	if m2 := c.Maj(b, d, a); m2 != m {
		t.Errorf("MAJ should be canonicalized: %d vs %d", m, m2)
	}
}

func TestStructuralHashing(t *testing.T) {
	c := logic.New()
	a := c.Input("a")
	b := c.Input("b")
	x := c.And(a, b)
	y := c.And(b, a)
	if x != y {
		t.Errorf("AND(a,b) and AND(b,a) should share a node")
	}
	before := len(c.Nodes)
	_ = c.And(a, b)
	if len(c.Nodes) != before {
		t.Errorf("rebuilding an existing gate must not add nodes")
	}
}

func TestEvalWordsTruthTables(t *testing.T) {
	c := logic.New()
	a := c.Input("a")
	b := c.Input("b")
	d := c.Input("d")
	c.Output(c.And(a, b), "and")
	c.Output(c.Or(a, b), "or")
	c.Output(c.Xor(a, b), "xor")
	c.Output(c.Maj(a, b, d), "maj")
	c.Output(c.Mux(a, b, d), "mux")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}

	for av := 0; av < 2; av++ {
		for bv := 0; bv < 2; bv++ {
			for dv := 0; dv < 2; dv++ {
				out := testoracle.EvalBits(c.EvalWords, []bool{av == 1, bv == 1, dv == 1})
				wantAnd := av == 1 && bv == 1
				wantOr := av == 1 || bv == 1
				wantXor := (av ^ bv) == 1
				wantMaj := av+bv+dv >= 2
				wantMux := (av == 1 && bv == 1) || (av == 0 && dv == 1)
				if out[0] != wantAnd || out[1] != wantOr || out[2] != wantXor || out[3] != wantMaj || out[4] != wantMux {
					t.Fatalf("a=%d b=%d d=%d: got %v", av, bv, dv, out)
				}
			}
		}
	}
}

func TestEvalWordsIsLaneParallel(t *testing.T) {
	c := logic.New()
	a := c.Input("a")
	b := c.Input("b")
	c.Output(c.Xor(a, b), "x")

	err := quick.Check(func(x, y uint64) bool {
		out := c.EvalWords([]uint64{x, y})
		return out[0] == x^y
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestEvalUintRoundTrip(t *testing.T) {
	// 4-bit adder built from gates; EvalUint must match integer addition.
	c := logic.New()
	a := c.InputBus("a", 4)
	b := c.InputBus("b", 4)
	carry := c.Const(false)
	sum := make([]int, 4)
	for i := 0; i < 4; i++ {
		sum[i] = c.Xor(c.Xor(a[i], b[i]), carry)
		carry = c.Maj(a[i], b[i], carry)
	}
	c.OutputBus(sum, "s")
	c.Output(carry, "cout")

	for x := uint64(0); x < 16; x++ {
		for y := uint64(0); y < 16; y++ {
			out := testoracle.EvalUint(c.EvalWords, []int{4, 4}, []uint64{x, y}, []int{4, 1})
			want := (x + y) & 0xF
			wantC := (x + y) >> 4
			if out[0] != want || out[1] != wantC {
				t.Fatalf("%d+%d: got sum=%d cout=%d, want %d,%d", x, y, out[0], out[1], want, wantC)
			}
		}
	}
}

func TestDepthAndCounts(t *testing.T) {
	c := logic.New()
	a := c.Input("a")
	b := c.Input("b")
	x := c.And(a, b)
	y := c.Or(x, a)
	c.Output(y, "y")
	if d := c.Depth(); d != 2 {
		t.Errorf("depth = %d, want 2", d)
	}
	if n := c.GateCount(); n != 2 {
		t.Errorf("gates = %d, want 2", n)
	}
	ands := 0
	for _, n := range c.Nodes {
		if n.Kind == logic.KindAnd {
			ands++
		}
	}
	if ands != 1 {
		t.Errorf("ands = %d, want 1", ands)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	c := logic.New()
	a := c.Input("a")
	if err := c.Validate(); err == nil {
		t.Error("circuit with no outputs must not validate")
	}
	c.Output(a, "a")
	if err := c.Validate(); err != nil {
		t.Errorf("valid circuit rejected: %v", err)
	}
	// Corrupt a fanin to violate topological order.
	b := c.Input("b")
	g := c.And(a, b)
	c.Output(g, "g")
	c.Nodes[g].Fanins[0] = g
	if err := c.Validate(); err == nil {
		t.Error("forward fanin must not validate")
	}
}

func TestRandomCircuitEvalStability(t *testing.T) {
	// Build a random DAG and check EvalWords agrees with EvalBits per lane.
	rng := rand.New(rand.NewSource(7))
	c := logic.New()
	nodes := []int{c.Input("a"), c.Input("b"), c.Input("c"), c.Input("d")}
	for i := 0; i < 80; i++ {
		pick := func() int { return nodes[rng.Intn(len(nodes))] }
		var n int
		switch rng.Intn(5) {
		case 0:
			n = c.And(pick(), pick())
		case 1:
			n = c.Or(pick(), pick())
		case 2:
			n = c.Xor(pick(), pick())
		case 3:
			n = c.Maj(pick(), pick(), pick())
		default:
			n = c.Not(pick())
		}
		nodes = append(nodes, n)
	}
	c.Output(nodes[len(nodes)-1], "out")
	c.Output(nodes[len(nodes)-2], "out2")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}

	in := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
	wide := c.EvalWords(in)
	for lane := 0; lane < 64; lane++ {
		bits := make([]bool, 4)
		for i := range bits {
			bits[i] = (in[i]>>uint(lane))&1 == 1
		}
		narrow := testoracle.EvalBits(c.EvalWords, bits)
		for o := range narrow {
			if narrow[o] != ((wide[o]>>uint(lane))&1 == 1) {
				t.Fatalf("lane %d output %d mismatch", lane, o)
			}
		}
	}
}
