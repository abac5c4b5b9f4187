package ops_test

import (
	"math"
	"math/rand"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/logic"
	"simdram/internal/mig"
	"simdram/internal/ops"
	"simdram/internal/testoracle"
	"simdram/internal/uprog"
	"simdram/internal/vertical"
)

const testN = 3 // operand count for N-ary reductions in tests

// goldenArgs builds a random argument vector for a definition, masked to
// each operand's width.
func goldenArgs(rng *rand.Rand, d ops.Def, w int) []uint64 {
	widths := d.SourceWidths(w, testN)
	args := make([]uint64, len(widths))
	for i := range args {
		args[i] = rng.Uint64() & ops.WidthMask(widths[i])
	}
	return args
}

// evalCircuit packs args through the circuit and returns the result.
func evalCircuit(c *logic.Circuit, d ops.Def, w int, args []uint64) uint64 {
	widths := d.SourceWidths(w, len(args))
	out := testoracle.EvalUint(c.EvalWords, widths, args, []int{d.DstWidth(w)})
	return out[0]
}

func TestCatalogComplete(t *testing.T) {
	if len(ops.Catalog()) != int(ops.NumCodes) {
		t.Fatalf("catalog has %d entries, want %d (every Code registered)", len(ops.Catalog()), ops.NumCodes)
	}
	if len(ops.PaperSet()) != 16 {
		t.Fatalf("paper set has %d ops, want 16", len(ops.PaperSet()))
	}
	names := map[string]bool{}
	for _, d := range ops.Catalog() {
		if names[d.Name] {
			t.Errorf("duplicate op name %q", d.Name)
		}
		names[d.Name] = true
		if _, err := ops.ByName(d.Name); err != nil {
			t.Errorf("ByName(%q): %v", d.Name, err)
		}
		if _, err := ops.ByCode(d.Code); err != nil {
			t.Errorf("ByCode(%v): %v", d.Code, err)
		}
	}
	for _, want := range []string{
		"abs", "addition", "bitcount", "division", "equal", "greater",
		"greater_equal", "if_else", "max", "min", "multiplication", "relu",
		"subtraction", "and_red", "or_red", "xor_red",
	} {
		if !names[want] {
			t.Errorf("paper operation %q missing from catalog", want)
		}
	}
	if _, err := ops.ByName("bogus"); err == nil {
		t.Error("ByName must reject unknown names")
	}
}

// TestCircuitsMatchGolden checks every op's gate circuit against its
// golden model on random operands.
func TestCircuitsMatchGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range ops.Catalog() {
		for _, w := range []int{4, 8, 16} {
			c, err := d.Build(w, testN)
			if err != nil {
				t.Fatalf("%s/%d: %v", d.Name, w, err)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("%s/%d: %v", d.Name, w, err)
			}
			for trial := 0; trial < 50; trial++ {
				args := goldenArgs(rng, d, w)
				got := evalCircuit(c, d, w, args)
				want := d.Golden(args, w)
				if got != want {
					t.Fatalf("%s/%d args=%v: circuit=%d golden=%d", d.Name, w, args, got, want)
				}
			}
		}
	}
}

// TestCircuitsExhaustiveSmall checks 2-operand ops exhaustively at 4 bits.
func TestCircuitsExhaustiveSmall(t *testing.T) {
	for _, d := range ops.Catalog() {
		if d.Arity != 2 {
			continue
		}
		w := 4
		c, err := d.Build(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		for a := uint64(0); a < 16; a++ {
			for b := uint64(0); b < 16; b++ {
				got := evalCircuit(c, d, w, []uint64{a, b})
				want := d.Golden([]uint64{a, b}, w)
				if got != want {
					t.Fatalf("%s(%d,%d) = %d, want %d", d.Name, a, b, got, want)
				}
			}
		}
	}
}

// TestMIGsPreserveCircuits checks the MAJ/NOT lowering and optimization
// for every operation.
func TestMIGsPreserveCircuits(t *testing.T) {
	for _, d := range ops.Catalog() {
		w := 8
		c, err := d.Build(w, testN)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mig.FromCircuit(c)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		m.Optimize(mig.DefaultOptimize())
		if err := testoracle.VerifyAgainstCircuit(m, c, 64, 13); err != nil {
			t.Fatalf("%s/8: optimized MIG wrong: %v", d.Name, err)
		}
	}
}

// runProgram executes a synthesized program on a test subarray.
func runProgram(t *testing.T, s *ops.Synthesized, operands [][]uint64) []uint64 {
	t.Helper()
	cfg := dram.TestConfig()
	sa := dram.NewSubarray(&cfg)
	n := len(operands[0])
	widths := s.Def.SourceWidths(s.Width, len(operands))
	total := 0
	for _, w := range widths {
		total += w
	}
	bind := uprog.Binding{
		DstBase:     total,
		ScratchBase: total + s.Program.DstWidth,
	}
	base := 0
	for k, vals := range operands {
		w := widths[k]
		rows, err := vertical.ToVertical(vals, w, cfg.Cols)
		if err != nil {
			t.Fatal(err)
		}
		bind.SrcBase = append(bind.SrcBase, base)
		for i := 0; i < w; i++ {
			sa.Poke(base+i, rows[i])
		}
		base += w
	}
	if err := testoracle.Run(s.Program, sa, bind); err != nil {
		t.Fatalf("%s: %v", s.Program.Name, err)
	}
	dw := s.Program.DstWidth
	dstRows := make([][]uint64, dw)
	for i := 0; i < dw; i++ {
		dstRows[i] = sa.PeekRow(bind.DstBase + i)
	}
	vals, err := vertical.ToHorizontal(dstRows, dw, n)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestAllOpsEndToEndInDRAM is the core correctness experiment: every
// operation of the paper set (plus helpers), synthesized through the full
// SIMDRAM flow, must compute bit-exactly in the DRAM model.
func TestAllOpsEndToEndInDRAM(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, d := range ops.Catalog() {
		for _, variant := range []ops.Variant{ops.VariantSIMDRAM, ops.VariantAmbit} {
			w := 8
			s, err := ops.SynthesizeCached(d, w, testN, variant)
			if err != nil {
				t.Fatalf("%s/%v: %v", d.Name, variant, err)
			}
			if err := testoracle.CheckProgram(s.Program, dram.TestConfig()); err != nil {
				t.Fatalf("%s/%v: invalid program: %v", d.Name, variant, err)
			}
			widths := d.SourceWidths(w, testN)
			n := 128
			operands := make([][]uint64, len(widths))
			for k := range operands {
				operands[k] = make([]uint64, n)
				for i := range operands[k] {
					operands[k][i] = rng.Uint64() & ops.WidthMask(widths[k])
				}
			}
			got := runProgram(t, s, operands)
			for lane := 0; lane < n; lane++ {
				args := make([]uint64, len(widths))
				for k := range args {
					args[k] = operands[k][lane]
				}
				want := d.Golden(args, w)
				if got[lane] != want {
					t.Fatalf("%s/%v lane %d args=%v: dram=%d golden=%d",
						d.Name, variant, lane, args, got[lane], want)
				}
			}
		}
	}
}

// TestSIMDRAMBeatsAmbit asserts the paper's Step-1/Step-2 claim: the
// MAJ-native flow is at least as fast as the AND/OR/NOT Ambit baseline
// for every paper operation, and meaningfully faster on average (the
// paper reports up to 5.1× throughput, average ≈ 2×).
func TestSIMDRAMBeatsAmbit(t *testing.T) {
	tm := dram.DDR4_2400()
	geo := 1.0
	for _, d := range ops.PaperSet() {
		w := 16
		sd, err := ops.SynthesizeCached(d, w, testN, ops.VariantSIMDRAM)
		if err != nil {
			t.Fatal(err)
		}
		am, err := ops.SynthesizeCached(d, w, testN, ops.VariantAmbit)
		if err != nil {
			t.Fatal(err)
		}
		sLat := sd.Program.LatencyNs(tm)
		aLat := am.Program.LatencyNs(tm)
		ratio := aLat / sLat
		geo *= ratio
		t.Logf("%-14s/16: simdram %7.0fns  ambit %7.0fns  speedup %.2f×", d.Name, sLat, aLat, ratio)
		if ratio < 1.0 {
			t.Errorf("%s/16: SIMDRAM slower than Ambit (%.2f×)", d.Name, ratio)
		}
	}
	geo = math.Pow(geo, 1.0/float64(len(ops.PaperSet())))
	t.Logf("geomean speedup over Ambit: %.2f×", geo)
	if geo < 1.3 {
		t.Errorf("geomean speedup over Ambit = %.2f×, want ≥ 1.3× (paper ≈ 2×)", geo)
	}
}

// TestAblationVariants checks that each disabled optimization costs
// commands on a representative op.
func TestAblationVariants(t *testing.T) {
	d, err := ops.ByName("addition")
	if err != nil {
		t.Fatal(err)
	}
	w := 16
	full, err := ops.SynthesizeCached(d, w, 0, ops.VariantSIMDRAM)
	if err != nil {
		t.Fatal(err)
	}
	noReuse, err := ops.SynthesizeCached(d, w, 0, ops.VariantNoReuse)
	if err != nil {
		t.Fatal(err)
	}
	if noReuse.Program.NumAAP() <= full.Program.NumAAP() {
		t.Errorf("row reuse should save AAPs: full=%d noReuse=%d",
			full.Program.NumAAP(), noReuse.Program.NumAAP())
	}
}

func TestReductionArity(t *testing.T) {
	d, err := ops.ByName("xor_red")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 3, 5} {
		c, err := d.Build(8, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Inputs) != 8*n {
			t.Errorf("xor_red n=%d: %d inputs, want %d", n, len(c.Inputs), 8*n)
		}
	}
	if _, err := d.Build(8, 1); err == nil {
		t.Error("reduction with n=1 must error")
	}
	if _, err := ops.Synthesize(d, 8, 1, ops.VariantSIMDRAM); err == nil {
		t.Error("Synthesize of reduction with n=1 must error")
	}
}

func TestGoldenEdgeCases(t *testing.T) {
	div, _ := ops.ByName("division")
	if got := div.Golden([]uint64{5, 0}, 8); got != 0xFF {
		t.Errorf("5/0 = %d, want 255 (hardware all-ones convention)", got)
	}
	abs, _ := ops.ByName("abs")
	// Most negative value maps to itself (two's complement overflow).
	if got := abs.Golden([]uint64{0x80}, 8); got != 0x80 {
		t.Errorf("abs(-128) = %#x, want 0x80", got)
	}
	if got := abs.Golden([]uint64{0xFF}, 8); got != 1 {
		t.Errorf("abs(-1) = %d, want 1", got)
	}
	relu, _ := ops.ByName("relu")
	if got := relu.Golden([]uint64{0x80}, 8); got != 0 {
		t.Errorf("relu(-128) = %d, want 0", got)
	}
	if got := relu.Golden([]uint64{0x7F}, 8); got != 0x7F {
		t.Errorf("relu(127) = %d, want 127", got)
	}
	bc, _ := ops.ByName("bitcount")
	if got := bc.Golden([]uint64{0xFF}, 8); got != 8 {
		t.Errorf("bitcount(0xFF) = %d, want 8", got)
	}
	ie, _ := ops.ByName("if_else")
	if got := ie.Golden([]uint64{3, 9, 1}, 8); got != 3 {
		t.Errorf("if_else(3,9,sel=1) = %d, want 3", got)
	}
	if got := ie.Golden([]uint64{3, 9, 0}, 8); got != 9 {
		t.Errorf("if_else(3,9,sel=0) = %d, want 9", got)
	}
}

func TestWidth64Golden(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, name := range []string{"addition", "subtraction", "max", "greater"} {
		d, err := ops.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := d.Build(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			args := []uint64{rng.Uint64(), rng.Uint64()}
			got := evalCircuit(c, d, 64, args)
			if want := d.Golden(args, 64); got != want {
				t.Fatalf("%s/64 args=%v: circuit=%d golden=%d", name, args, got, want)
			}
		}
	}
}

func TestMulFullProduct(t *testing.T) {
	d, _ := ops.ByName("multiplication")
	if d.DstWidth(8) != 16 || d.DstWidth(32) != 64 || d.DstWidth(64) != 64 {
		t.Errorf("multiplication dst widths wrong: %d %d %d",
			d.DstWidth(8), d.DstWidth(32), d.DstWidth(64))
	}
	c, err := d.Build(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := evalCircuit(c, d, 8, []uint64{0xFF, 0xFF})
	if got != 0xFF*0xFF {
		t.Errorf("255*255 = %d, want %d", got, 0xFF*0xFF)
	}
}

func TestSynthesizeCachedReturnsSameObject(t *testing.T) {
	d, _ := ops.ByName("addition")
	a, err := ops.SynthesizeCached(d, 8, 0, ops.VariantSIMDRAM)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ops.SynthesizeCached(d, 8, 0, ops.VariantSIMDRAM)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache must return the same synthesis object")
	}
}

// TestCostNsMemoized checks the CostNs memo against the program it
// prices: two passes over every catalog op at three widths, two
// variants and two timings must each return the μProgram's own
// latency, so no memo entry answers for another key.
func TestCostNsMemoized(t *testing.T) {
	slow := dram.DDR4_2400()
	slow.TRAS *= 2
	for pass := 0; pass < 2; pass++ {
		for _, tm := range []dram.Timing{dram.DDR4_2400(), slow} {
			for _, v := range []ops.Variant{ops.VariantSIMDRAM, ops.VariantAmbit} {
				for _, w := range []int{4, 8, 16} {
					for _, d := range ops.Catalog() {
						got, err := ops.CostNs(d, w, testN, v, tm)
						if err != nil {
							t.Fatal(err)
						}
						s, err := ops.SynthesizeCached(d, w, testN, v)
						if err != nil {
							t.Fatal(err)
						}
						if want := s.Program.LatencyNs(tm); got != want {
							t.Fatalf("pass %d: %s/%d (%v): CostNs %v, program latency %v", pass, d.Name, w, v, got, want)
						}
					}
				}
			}
		}
	}
}
