package simdram

import (
	"math/rand"
	"testing"

	"simdram/internal/isa"
	"simdram/internal/ops"
)

// testGraphSystem builds a geometry tall enough for naive per-node
// lowering of 30+-node DAGs: naive allocation claims one fresh
// temporary per node, and every vector of one expression shares a
// placement group, so the whole naive footprint lands in the same
// subarrays.
func testGraphSystem(t testing.TB) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DRAM.Cols = 256
	cfg.DRAM.RowsPerSubarray = 1024
	cfg.DRAM.Banks = 2
	cfg.DRAM.SubarraysPerBank = 2
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func testGraphCluster(t testing.TB, channels int) *Cluster {
	t.Helper()
	cfg := DefaultClusterConfig(channels)
	cfg.Channel.DRAM.Cols = 64
	cfg.Channel.DRAM.RowsPerSubarray = 1024
	cfg.Channel.DRAM.Banks = 2
	cfg.Channel.DRAM.SubarraysPerBank = 2
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func storeRand(t testing.TB, rng *rand.Rand, v interface {
	Store([]uint64) error
	Len() int
	Width() int
}) []uint64 {
	t.Helper()
	data := make([]uint64, v.Len())
	mask := uint64(1)<<uint(v.Width()) - 1
	for i := range data {
		data[i] = rng.Uint64() & mask
	}
	if err := v.Store(data); err != nil {
		t.Fatal(err)
	}
	return data
}

// buildRandomDAG grows a randomized expression DAG of exactly nOps
// operation nodes over the given leaves: same-width binary operations,
// occasional 3-ary reductions, scalar constants, and deliberate
// structural duplicates (distinct *Expr trees with identical shape) so
// CSE has real work. Returns the roots to materialize.
func buildRandomDAG(rng *rand.Rand, leaves []*Expr, width, nOps int) []*Expr {
	binOps := []string{"addition", "subtraction", "max", "min"}
	pool := append([]*Expr(nil), leaves...)
	type rec struct {
		op   string
		args []*Expr
	}
	var made []rec
	emit := func(op string, args ...*Expr) *Expr {
		made = append(made, rec{op, args})
		e := args[0].Apply(op, args[1:]...)
		pool = append(pool, e)
		return e
	}
	for i := 0; i < nOps; i++ {
		switch {
		case len(made) > 0 && rng.Intn(5) == 0:
			// Structural duplicate of an earlier operation: a fresh tree
			// CSE must recognize.
			r := made[rng.Intn(len(made))]
			e := r.args[0].Apply(r.op, r.args[1:]...)
			pool = append(pool, e)
		case rng.Intn(8) == 0:
			a := pool[rng.Intn(len(pool))]
			emit(binOps[rng.Intn(len(binOps))], a, Scalar(rng.Uint64(), width))
		case rng.Intn(10) == 0:
			emit("xor_red", pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])
		default:
			emit(binOps[rng.Intn(len(binOps))], pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])
		}
	}
	// Roots: every sink operation (no expression consumes it), so the
	// whole randomized DAG reaches the IR. CSE-merged duplicates still
	// leave dead originals behind for DCE.
	used := map[*Expr]bool{}
	for _, e := range pool {
		for _, a := range e.args {
			used[a] = true
		}
	}
	var roots []*Expr
	for _, e := range pool[len(leaves):] {
		if !used[e] {
			roots = append(roots, e)
		}
	}
	return roots
}

// TestGraphDifferentialRandomDAG is the acceptance differential: a
// randomized 30+-node DAG materialized with every pass on must be
// bit-identical to serially Exec-ing the naive per-node program.
func TestGraphDifferentialRandomDAG(t *testing.T) {
	sys := testGraphSystem(t)
	defer sys.Close()
	rng := rand.New(rand.NewSource(7))
	const n, width = 300, 16 // two segments: exercises multi-subarray lowering

	leaves := make([]*Expr, 4)
	for i := range leaves {
		v, err := sys.AllocVector(n, width)
		if err != nil {
			t.Fatal(err)
		}
		storeRand(t, rng, v)
		leaves[i] = sys.Lazy(v)
	}
	roots := buildRandomDAG(rng, leaves, width, 34)
	baseRows := sys.usedRows()

	// Naive baseline: one instruction and one fresh temporary per node,
	// issued serially through Exec.
	ncp, err := sys.CompileWith(NaiveCompile, roots...)
	if err != nil {
		t.Fatal(err)
	}
	if got := ncp.Stats().Instructions; got < 30 {
		t.Fatalf("naive program has %d instructions, want a 30+-node DAG", got)
	}
	for _, in := range ncp.Program() {
		if _, err := sys.Exec(in); err != nil {
			t.Fatalf("serial exec of %v: %v", in, err)
		}
	}
	naive := make([][]uint64, len(roots))
	for i, r := range roots {
		if naive[i], err = r.Result().Load(); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range roots {
		r.Result().Free()
	}
	ncp.Free()
	if got := sys.usedRows(); got != baseRows {
		t.Fatalf("naive cleanup leaked rows: %d used, want %d", got, baseRows)
	}

	// Optimized: all passes, batched execution.
	cp, err := sys.Compile(roots...)
	if err != nil {
		t.Fatal(err)
	}
	st := cp.Stats()
	if st.CSEEliminated == 0 {
		t.Error("randomized DAG with structural duplicates produced no CSE merges")
	}
	if st.TempRowsPooled >= st.TempRowsNaive {
		t.Errorf("lifetime reuse saved nothing: pooled %d rows, naive %d", st.TempRowsPooled, st.TempRowsNaive)
	}
	if st.Instructions >= ncp.Stats().Instructions {
		t.Errorf("optimized program has %d instructions, naive %d", st.Instructions, ncp.Stats().Instructions)
	}
	if _, err := cp.Execute(); err != nil {
		t.Fatal(err)
	}
	for i, r := range roots {
		got, err := r.Result().Load()
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != naive[i][j] {
				t.Fatalf("root %d element %d: optimized %d, naive serial %d", i, j, got[j], naive[i][j])
			}
		}
	}
	for _, r := range roots {
		r.Result().Free()
	}
	cp.Free()
	if got := sys.usedRows(); got != baseRows {
		t.Fatalf("optimized cleanup leaked rows: %d used, want %d", got, baseRows)
	}
	if got := sys.VerifiedPlans(); got == 0 {
		t.Fatal("no plan was verified")
	}
}

// TestGraphDifferentialCluster runs the same differential on a
// 4-channel cluster: Materialize must match issuing the naive program
// one instruction at a time.
func TestGraphDifferentialCluster(t *testing.T) {
	c := testGraphCluster(t, 4)
	defer c.Close()
	rng := rand.New(rand.NewSource(11))
	const n, width = 256, 16 // one 64-lane segment per channel

	leaves := make([]*Expr, 4)
	for i := range leaves {
		v, err := c.AllocShardedVector(n, width)
		if err != nil {
			t.Fatal(err)
		}
		storeRand(t, rng, v)
		leaves[i] = c.Lazy(v)
	}
	roots := buildRandomDAG(rng, leaves, width, 32)

	ncp, err := c.CompileWith(NaiveCompile, roots...)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ncp.Program() {
		if _, err := c.ExecBatch(isa.Program{in}); err != nil {
			t.Fatalf("serial exec of %v: %v", in, err)
		}
	}
	naive := make([][]uint64, len(roots))
	for i, r := range roots {
		if naive[i], err = r.ShardedResult().Load(); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range roots {
		r.ShardedResult().Free()
	}
	ncp.Free()

	if _, err := c.Materialize(roots...); err != nil {
		t.Fatal(err)
	}
	for i, r := range roots {
		got, err := r.ShardedResult().Load()
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != naive[i][j] {
				t.Fatalf("root %d element %d: optimized %d, naive serial %d", i, j, got[j], naive[i][j])
			}
		}
	}
	// Roots merged by CSE share one result vector; free after all loads.
	for _, r := range roots {
		r.ShardedResult().Free()
	}
}

// TestGraphEveryOpDifferential lowers every operation in the catalog
// through the graph compiler and checks the materialized result against
// the operation's golden model element by element.
func TestGraphEveryOpDifferential(t *testing.T) {
	sys := testGraphSystem(t)
	defer sys.Close()
	rng := rand.New(rand.NewSource(3))
	const n, width = 64, 8
	for _, d := range ops.Catalog() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			arity := d.Arity
			if arity < 0 {
				arity = 3 // exercise an N-ary reduction at full ISA fan-in
			}
			widths := d.SourceWidths(width, arity)
			exprs := make([]*Expr, arity)
			data := make([][]uint64, arity)
			var vecs []*Vector
			for k := 0; k < arity; k++ {
				v, err := sys.AllocVector(n, widths[k])
				if err != nil {
					t.Fatal(err)
				}
				vecs = append(vecs, v)
				data[k] = storeRand(t, rng, v)
				exprs[k] = sys.Lazy(v)
			}
			e := exprs[0].Apply(d.Name, exprs[1:]...)
			if _, err := sys.Materialize(e); err != nil {
				t.Fatal(err)
			}
			got, err := e.Result().Load()
			if err != nil {
				t.Fatal(err)
			}
			args := make([]uint64, arity)
			for j := 0; j < n; j++ {
				for k := range args {
					args[k] = data[k][j]
				}
				if want := d.Golden(args, width); got[j] != want {
					t.Fatalf("element %d: got %d, golden %d (args %v)", j, got[j], want, args)
				}
			}
			e.Result().Free()
			for _, v := range vecs {
				v.Free()
			}
		})
	}
}

// TestGraphCustomBuilderOp registers a user operation through
// DefineOperation and materializes it through the graph compiler — the
// paper's extensibility story carried end to end: Builder circuit →
// μProgram → bbop opcode → lazy expression.
func TestGraphCustomBuilderOp(t *testing.T) {
	err := DefineOperation(OperationSpec{
		Name:  "graph_test_nand",
		Arity: 2,
		Build: func(b *Builder, width int) error {
			x := b.Operand("x", width)
			y := b.Operand("y", width)
			out := make(Bus, width)
			for i := range out {
				out[i] = b.Not(b.And(x[i], y[i]))
			}
			b.Output(out, "out")
			return nil
		},
		Golden: func(args []uint64, width int) uint64 {
			mask := uint64(1)<<uint(width) - 1
			return ^(args[0] & args[1]) & mask
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := testGraphSystem(t)
	defer sys.Close()
	rng := rand.New(rand.NewSource(5))
	const n, width = 80, 8
	va, _ := sys.AllocVector(n, width)
	vb, _ := sys.AllocVector(n, width)
	da := storeRand(t, rng, va)
	db := storeRand(t, rng, vb)
	// Mix the custom op with built-ins so it flows through scheduling,
	// CSE, and slot assignment like any catalog operation.
	a, b := sys.Lazy(va), sys.Lazy(vb)
	e := a.Apply("graph_test_nand", b).Min(a.Apply("graph_test_nand", b).Max(a))
	if _, err := sys.Materialize(e); err != nil {
		t.Fatal(err)
	}
	got, err := e.Result().Load()
	if err != nil {
		t.Fatal(err)
	}
	mask := uint64(1)<<width - 1
	for j := range got {
		nand := ^(da[j] & db[j]) & mask
		want := nand
		if mx := max64(nand, da[j]); mx < want {
			want = mx
		}
		if got[j] != want {
			t.Fatalf("element %d: got %d, want %d", j, got[j], want)
		}
	}
	e.Result().Free()
	va.Free()
	vb.Free()
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// TestGraphConstantsAndFolding checks Scalar handling: all-constant
// subtrees fold at compile time, surviving constants splat as shared
// vectors, and values come out right.
func TestGraphConstantsAndFolding(t *testing.T) {
	sys := testGraphSystem(t)
	defer sys.Close()
	const n, width = 64, 16
	v, _ := sys.AllocVector(n, width)
	rng := rand.New(rand.NewSource(9))
	data := storeRand(t, rng, v)
	a := sys.Lazy(v)
	// (3+4)*nothing folds to const 7; a + 7 consumes the splat. The
	// second use of Scalar 7 dedups onto the same constant vector.
	e := a.Add(Scalar(3, width).Add(Scalar(4, width))).Max(a.Add(Scalar(7, width)))
	cp, err := sys.Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	st := cp.Stats()
	if st.Folded != 1 {
		t.Errorf("folded %d nodes, want 1 (3+4)", st.Folded)
	}
	if st.ConstVectors != 1 {
		t.Errorf("allocated %d constant vectors, want 1 (7 deduplicated)", st.ConstVectors)
	}
	if st.CSEEliminated == 0 {
		t.Error("a+7 appears twice; CSE merged nothing")
	}
	if _, err := cp.Execute(); err != nil {
		t.Fatal(err)
	}
	got, err := e.Result().Load()
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		want := (data[j] + 7) & 0xFFFF // max(x, x) = x
		if got[j] != want {
			t.Fatalf("element %d: got %d, want %d", j, got[j], want)
		}
	}
	cp.Free()
	e.Result().Free()
	v.Free()
}

// TestGraphLeafRoot materializes a bare leaf: no program runs and the
// result is the leaf vector itself.
func TestGraphLeafRoot(t *testing.T) {
	sys := testGraphSystem(t)
	defer sys.Close()
	v, _ := sys.AllocVector(32, 8)
	e := sys.Lazy(v)
	st, err := sys.Materialize(e)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 0 {
		t.Errorf("leaf root executed %d instructions, want 0", st.Instructions)
	}
	if e.Result() != v {
		t.Error("leaf root result is not the leaf vector")
	}
}

func TestGraphErrors(t *testing.T) {
	sys := testGraphSystem(t)
	defer sys.Close()
	sys2 := testGraphSystem(t)
	defer sys2.Close()
	c := testGraphCluster(t, 2)
	defer c.Close()

	v8, _ := sys.AllocVector(32, 8)
	v16, _ := sys.AllocVector(32, 16)
	vOther, _ := sys2.AllocVector(32, 8)
	vShort, _ := sys.AllocVector(16, 8)
	sv, _ := c.AllocShardedVector(32, 8)

	cases := []struct {
		name string
		run  func() error
	}{
		{"no expressions", func() error { _, err := sys.Materialize(); return err }},
		{"pure constant", func() error { _, err := sys.Materialize(Scalar(1, 8)); return err }},
		{"unknown op", func() error { _, err := sys.Materialize(sys.Lazy(v8).Apply("bogus", sys.Lazy(v8))); return err }},
		{"width mismatch", func() error { _, err := sys.Materialize(sys.Lazy(v8).Add(sys.Lazy(v16))); return err }},
		{"length mismatch", func() error { _, err := sys.Materialize(sys.Lazy(v8).Add(sys.Lazy(vShort))); return err }},
		{"foreign system leaf", func() error { _, err := sys.Materialize(sys.Lazy(v8).Add(sys.Lazy(vOther))); return err }},
		{"cluster leaf on system", func() error { _, err := sys.Materialize(sys.Lazy(v8).Add(c.Lazy(sv))); return err }},
		{"system leaf on cluster", func() error { _, err := c.Materialize(c.Lazy(sv).Add(sys.Lazy(v8))); return err }},
		{"nil expression", func() error { _, err := sys.Materialize(sys.Lazy(v8).Add(nil)); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err == nil {
				t.Error("accepted, want error")
			}
		})
	}

	t.Run("failed compile publishes no results", func(t *testing.T) {
		// A cramped geometry: naive per-node lowering of this chain
		// cannot fit its temporaries, so CompileWith fails mid-
		// allocation. The expression must come out untouched — no
		// result pointer at a freed vector — and no rows may leak.
		small := DefaultConfig()
		small.DRAM.Cols = 256
		small.DRAM.RowsPerSubarray = 128
		small.DRAM.Banks = 2
		small.DRAM.SubarraysPerBank = 2
		ssys, err := New(small)
		if err != nil {
			t.Fatal(err)
		}
		defer ssys.Close()
		va, _ := ssys.AllocVector(32, 16)
		vb, _ := ssys.AllocVector(32, 16)
		base := ssys.usedRows()
		e := ssys.Lazy(va)
		for i := 0; i < 10; i++ {
			e = e.Add(ssys.Lazy(vb))
		}
		if _, err := ssys.CompileWith(NaiveCompile, e); err == nil {
			t.Fatal("naive lowering of a 10-temp chain fit in 116 data rows")
		}
		if e.Result() != nil {
			t.Error("failed compile left a result pointer on the expression")
		}
		if got := ssys.usedRows(); got != base {
			t.Errorf("failed compile leaked rows: %d used, want %d", got, base)
		}
	})

	t.Run("root duplicate with DCE off", func(t *testing.T) {
		// CSE merges a root that duplicates an earlier subexpression;
		// the orphaned duplicate must lose its root mark or, with DCE
		// disabled, it schedules as a root without result storage.
		va, _ := sys.AllocVector(32, 8)
		vb, _ := sys.AllocVector(32, 8)
		rng := rand.New(rand.NewSource(21))
		da := storeRand(t, rng, va)
		db := storeRand(t, rng, vb)
		a, b := sys.Lazy(va), sys.Lazy(vb)
		whole := a.Add(b).Max(a)
		dupRoot := a.Add(b) // duplicates whole's first link
		cp, err := sys.CompileWith(CompileOptions{NoDCE: true}, whole, dupRoot)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cp.Execute(); err != nil {
			t.Fatal(err)
		}
		got, err := dupRoot.Result().Load()
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if want := (da[j] + db[j]) & 0xFF; got[j] != want {
				t.Fatalf("element %d: got %d, want %d", j, got[j], want)
			}
		}
		cp.Free()
		whole.Result().Free()
		dupRoot.Result().Free()
		va.Free()
		vb.Free()
	})

	t.Run("freed leaf", func(t *testing.T) {
		vf, _ := sys.AllocVector(32, 8)
		e := sys.Lazy(vf).Not()
		vf.Free()
		if _, err := sys.Materialize(e); err == nil {
			t.Error("freed leaf accepted")
		}
	})
}
