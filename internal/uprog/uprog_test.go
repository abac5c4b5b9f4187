package uprog

import (
	"math/rand"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/logic"
	"simdram/internal/mig"
	"simdram/internal/vertical"
)

// buildAdderMIG returns an optimized W-bit ripple-carry adder MIG with
// inputs a[0..W-1], b[0..W-1] and outputs s[0..W-1].
func buildAdderMIG(t testing.TB, width int) *mig.MIG {
	t.Helper()
	c := logic.New()
	a := c.InputBus("a", width)
	b := c.InputBus("b", width)
	carry := c.Const(false)
	sum := make([]int, width)
	for i := 0; i < width; i++ {
		sum[i] = c.Xor(c.Xor(a[i], b[i]), carry)
		carry = c.Maj(a[i], b[i], carry)
	}
	c.OutputBus(sum, "s")
	m, err := mig.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	m.Optimize(mig.DefaultOptimize())
	return m
}

// stdRefs builds the conventional input/output reference layout for a
// two-operand, width-bit operation.
func stdRefs(width, dstWidth int) (in, out []Ref) {
	for op := 0; op < 2; op++ {
		for i := 0; i < width; i++ {
			in = append(in, Ref{Space: SpaceSrc, Op: op, Idx: i})
		}
	}
	for i := 0; i < dstWidth; i++ {
		out = append(out, Ref{Space: SpaceDst, Idx: i})
	}
	return in, out
}

func TestGenerateAdderStructure(t *testing.T) {
	m := buildAdderMIG(t, 8)
	in, out := stdRefs(8, 8)
	p, err := Generate(m, in, out, DefaultCodegen("add8"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(dram.TestConfig()); err != nil {
		t.Fatal(err)
	}
	tras := p.NumAP()
	for _, op := range p.Ops {
		if op.Kind == OpMajCopy {
			tras++
		}
	}
	if tras != m.Size() {
		t.Errorf("TRA count %d should equal MIG size %d", tras, m.Size())
	}
	if p.NumAAP() == 0 {
		t.Error("expected some AAP copies")
	}
	if p.Width != 8 || p.NumSrc != 2 || p.DstWidth != 8 {
		t.Errorf("inferred shape wrong: %+v", p)
	}
}

// runOnSubarray loads two vertical operands, runs the program, and reads
// back the destination.
func runOnSubarray(t testing.TB, p *Program, width int, av, bv []uint64) []uint64 {
	t.Helper()
	cfg := dram.TestConfig()
	sa := dram.NewSubarray(&cfg)
	lanes := cfg.Cols
	rowsA, err := vertical.ToVertical(av, width, lanes)
	if err != nil {
		t.Fatal(err)
	}
	rowsB, err := vertical.ToVertical(bv, width, lanes)
	if err != nil {
		t.Fatal(err)
	}
	bind := Binding{
		SrcBase:     []int{0, width},
		DstBase:     2 * width,
		ScratchBase: 2*width + p.DstWidth,
	}
	for i := 0; i < width; i++ {
		sa.Poke(bind.SrcBase[0]+i, rowsA[i])
		sa.Poke(bind.SrcBase[1]+i, rowsB[i])
	}
	if err := Run(p, sa, bind); err != nil {
		t.Fatal(err)
	}
	dstRows := make([][]uint64, p.DstWidth)
	for i := 0; i < p.DstWidth; i++ {
		dstRows[i] = sa.PeekRow(bind.DstBase + i)
	}
	vals, err := vertical.ToHorizontal(dstRows, p.DstWidth, len(av))
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestAdderEndToEnd(t *testing.T) {
	for _, width := range []int{4, 8, 16} {
		m := buildAdderMIG(t, width)
		in, out := stdRefs(width, width)
		p, err := Generate(m, in, out, DefaultCodegen("add"))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(width)))
		n := 200
		mask := uint64(1)<<uint(width) - 1
		av := make([]uint64, n)
		bv := make([]uint64, n)
		for i := range av {
			av[i] = rng.Uint64() & mask
			bv[i] = rng.Uint64() & mask
		}
		got := runOnSubarray(t, p, width, av, bv)
		for i := range got {
			want := (av[i] + bv[i]) & mask
			if got[i] != want {
				t.Fatalf("width %d lane %d: %d + %d = %d, want %d", width, i, av[i], bv[i], got[i], want)
			}
		}
	}
}

func TestNaiveCodegenMatchesAndCostsMore(t *testing.T) {
	m := buildAdderMIG(t, 8)
	in, out := stdRefs(8, 8)
	optimized, err := Generate(m, in, out, DefaultCodegen("add"))
	if err != nil {
		t.Fatal(err)
	}
	naiveOpts := DefaultCodegen("add-naive")
	naiveOpts.ReuseRows = false
	naive, err := Generate(m, in, out, naiveOpts)
	if err != nil {
		t.Fatal(err)
	}
	if naive.NumAAP() <= optimized.NumAAP() {
		t.Errorf("naive codegen should need more AAPs: naive=%d optimized=%d", naive.NumAAP(), optimized.NumAAP())
	}
	// Both must be functionally identical.
	rng := rand.New(rand.NewSource(9))
	av := make([]uint64, 100)
	bv := make([]uint64, 100)
	for i := range av {
		av[i] = rng.Uint64() & 0xFF
		bv[i] = rng.Uint64() & 0xFF
	}
	g1 := runOnSubarray(t, optimized, 8, av, bv)
	g2 := runOnSubarray(t, naive, 8, av, bv)
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("lane %d: optimized %d naive %d", i, g1[i], g2[i])
		}
	}
}

func TestNegatedOutputsAndInputs(t *testing.T) {
	// out = NOT(a AND b): exercises the DCC complement path for outputs.
	c := logic.New()
	a := c.Input("a")
	b := c.Input("b")
	c.Output(c.Not(c.And(a, b)), "nand")
	m, err := mig.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	in := []Ref{{Space: SpaceSrc, Op: 0, Idx: 0}, {Space: SpaceSrc, Op: 1, Idx: 0}}
	out := []Ref{{Space: SpaceDst, Idx: 0}}
	p, err := Generate(m, in, out, DefaultCodegen("nand"))
	if err != nil {
		t.Fatal(err)
	}
	av := []uint64{0, 0, 1, 1}
	bv := []uint64{0, 1, 0, 1}
	got := runOnSubarray(t, p, 1, av, bv)
	want := []uint64{1, 1, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NAND lane %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestConstantAndPassthroughOutputs(t *testing.T) {
	// Outputs: constant 1, constant 0, input a, NOT input b.
	c := logic.New()
	a := c.Input("a")
	b := c.Input("b")
	c.Output(c.Const(true), "one")
	c.Output(c.Const(false), "zero")
	c.Output(a, "a")
	c.Output(c.Not(b), "nb")
	m, err := mig.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	in := []Ref{{Space: SpaceSrc, Op: 0, Idx: 0}, {Space: SpaceSrc, Op: 1, Idx: 0}}
	out := make([]Ref, 4)
	for i := range out {
		out[i] = Ref{Space: SpaceDst, Idx: i}
	}
	p, err := Generate(m, in, out, DefaultCodegen("misc"))
	if err != nil {
		t.Fatal(err)
	}
	av := []uint64{0, 1}
	bv := []uint64{1, 0}
	cfg := dram.TestConfig()
	sa := dram.NewSubarray(&cfg)
	rowsA, _ := vertical.ToVertical(av, 1, cfg.Cols)
	rowsB, _ := vertical.ToVertical(bv, 1, cfg.Cols)
	bind := Binding{SrcBase: []int{0, 1}, DstBase: 2, ScratchBase: 6}
	sa.Poke(0, rowsA[0])
	sa.Poke(1, rowsB[0])
	if err := Run(p, sa, bind); err != nil {
		t.Fatal(err)
	}
	read := func(row int) uint64 { return sa.PeekRow(row)[0] & 3 }
	if read(2) != 3 {
		t.Errorf("const-1 output wrong: %b", read(2))
	}
	if read(3) != 0 {
		t.Errorf("const-0 output wrong: %b", read(3))
	}
	if read(4) != 2 { // a = {lane0: 0, lane1: 1} → bit pattern 0b10
		t.Errorf("passthrough output wrong: %b", read(4))
	}
	if read(5) != 2 {
		t.Errorf("negated passthrough wrong: %b", read(5))
	}
}

func TestRandomMIGsEndToEnd(t *testing.T) {
	// Property test: arbitrary random MIGs over 6 single-bit inputs
	// (3 operands × 2 bits) must execute bit-exactly in DRAM.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		width := 2
		nOps := 3
		c := logic.New()
		var inputs []int
		for op := 0; op < nOps; op++ {
			inputs = append(inputs, c.InputBus("x", width)...)
		}
		nodes := append([]int(nil), inputs...)
		pick := func() int { return nodes[rng.Intn(len(nodes))] }
		for i := 0; i < 25; i++ {
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
		outs := make([]int, width)
		for i := range outs {
			outs[i] = nodes[len(nodes)-1-i]
		}
		c.OutputBus(outs, "y")
		m, err := mig.FromCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			m.Optimize(mig.DefaultOptimize())
		}
		var in []Ref
		for op := 0; op < nOps; op++ {
			for i := 0; i < width; i++ {
				in = append(in, Ref{Space: SpaceSrc, Op: op, Idx: i})
			}
		}
		var out []Ref
		for i := 0; i < width; i++ {
			out = append(out, Ref{Space: SpaceDst, Idx: i})
		}
		p, err := Generate(m, in, out, DefaultCodegen("rand"))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Execute on DRAM.
		cfg := dram.TestConfig()
		sa := dram.NewSubarray(&cfg)
		n := 64
		vals := make([][]uint64, nOps)
		bind := Binding{DstBase: nOps * width, ScratchBase: (nOps + 1) * width}
		for op := 0; op < nOps; op++ {
			vals[op] = make([]uint64, n)
			for i := range vals[op] {
				vals[op][i] = rng.Uint64() & 3
			}
			rows, err := vertical.ToVertical(vals[op], width, cfg.Cols)
			if err != nil {
				t.Fatal(err)
			}
			base := op * width
			bind.SrcBase = append(bind.SrcBase, base)
			for i := 0; i < width; i++ {
				sa.Poke(base+i, rows[i])
			}
		}
		if err := Run(p, sa, bind); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dstRows := make([][]uint64, width)
		for i := range dstRows {
			dstRows[i] = sa.PeekRow(bind.DstBase + i)
		}
		got, err := vertical.ToHorizontal(dstRows, width, n)
		if err != nil {
			t.Fatal(err)
		}
		// Golden: evaluate the MIG directly per lane.
		for lane := 0; lane < n; lane++ {
			bits := make([]bool, nOps*width)
			for op := 0; op < nOps; op++ {
				for i := 0; i < width; i++ {
					bits[op*width+i] = (vals[op][lane]>>uint(i))&1 == 1
				}
			}
			wantBits := m.EvalBits(bits)
			var want uint64
			for i, wb := range wantBits {
				if wb {
					want |= 1 << uint(i)
				}
			}
			if got[lane] != want {
				t.Fatalf("trial %d lane %d: got %d want %d\n%s", trial, lane, got[lane], want, p)
			}
		}
	}
}

func TestBindingValidation(t *testing.T) {
	cfg := dram.TestConfig()
	p := &Program{Name: "x", Width: 8, NumSrc: 2, DstWidth: 8, NumScratch: 4}
	good := Binding{SrcBase: []int{0, 8}, DstBase: 16, ScratchBase: 24}
	if err := good.Validate(p, cfg); err != nil {
		t.Errorf("good binding rejected: %v", err)
	}
	overlap := Binding{SrcBase: []int{0, 8}, DstBase: 4, ScratchBase: 24}
	if err := overlap.Validate(p, cfg); err == nil {
		t.Error("dst overlapping src must be rejected")
	}
	outside := Binding{SrcBase: []int{0, 8}, DstBase: cfg.DataRows() - 2, ScratchBase: 24}
	if err := outside.Validate(p, cfg); err == nil {
		t.Error("dst outside data rows must be rejected")
	}
}

func TestProgramCostModels(t *testing.T) {
	m := buildAdderMIG(t, 8)
	in, out := stdRefs(8, 8)
	p, err := Generate(m, in, out, DefaultCodegen("add"))
	if err != nil {
		t.Fatal(err)
	}
	tm := dram.DDR4_2400()
	e := dram.DDR4Energy()
	lat := p.LatencyNs(tm)
	want := float64(p.NumAAP())*tm.AAPLatency() + float64(p.NumAP())*tm.APLatency()
	if lat != want {
		t.Errorf("latency model inconsistent: %f vs %f", lat, want)
	}
	if p.EnergyPJ(e) <= 0 {
		t.Error("energy must be positive")
	}
}

func TestGenerateRejectsBadShapes(t *testing.T) {
	m := mig.New(2)
	m.AddOutput(m.And(m.Input(0), m.Input(1)), "o")
	in := []Ref{{Space: SpaceSrc, Op: 0, Idx: 0}}
	out := []Ref{{Space: SpaceDst, Idx: 0}}
	if _, err := Generate(m, in, out, DefaultCodegen("bad")); err == nil {
		t.Error("wrong input ref count must error")
	}
	in = append(in, Ref{Space: SpaceSrc, Op: 1, Idx: 0})
	opts := DefaultCodegen("bad")
	opts.NumTRows = 4
	if _, err := Generate(m, in, out, opts); err == nil {
		t.Error("NumTRows=4 must error")
	}
}
