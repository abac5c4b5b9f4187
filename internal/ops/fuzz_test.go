package ops_test

import (
	"math/rand"
	"testing"

	"simdram/internal/ops"
)

// TestAllOpsAllWidthsFuzz sweeps every catalog operation across uneven
// element widths — including non-power-of-two and boundary widths — and
// checks the full synthesis pipeline (circuit → MIG → optimized MIG)
// against the golden model. This is the broad-coverage net behind the
// targeted tests: any width-dependent off-by-one in a circuit generator,
// a MIG template, or the optimizer shows up here.
func TestAllOpsAllWidthsFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	widths := []int{1, 2, 3, 5, 7, 12, 13, 24, 33, 63, 64}
	for _, d := range ops.Catalog() {
		for _, w := range widths {
			if w == 1 && d.Signed {
				continue // a 1-bit two's-complement value is degenerate
			}
			c, err := d.Build(w, testN)
			if err != nil {
				t.Fatalf("%s/%d: %v", d.Name, w, err)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("%s/%d: %v", d.Name, w, err)
			}
			trials := 40
			if w >= 24 {
				trials = 15 // wide multipliers/dividers are pricey to eval
			}
			for trial := 0; trial < trials; trial++ {
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

// TestSignedComparisons pins the signed-extension semantics at the
// boundaries where unsigned and signed orderings disagree.
func TestSignedComparisons(t *testing.T) {
	gt, err := ops.ByName("greater_signed")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b uint64
		want uint64
	}{
		{0x7F, 0x80, 1}, // 127 > -128
		{0x80, 0x7F, 0}, // -128 < 127
		{0xFF, 0x00, 0}, // -1 < 0
		{0x00, 0xFF, 1}, // 0 > -1
		{0xFE, 0xFF, 0}, // -2 < -1
		{0x05, 0x03, 1},
	}
	c, err := gt.Build(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if got := gt.Golden([]uint64{tc.a, tc.b}, 8); got != tc.want {
			t.Errorf("golden greater_signed(%#x,%#x) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := evalCircuit(c, gt, 8, []uint64{tc.a, tc.b}); got != tc.want {
			t.Errorf("circuit greater_signed(%#x,%#x) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	mx, _ := ops.ByName("max_signed")
	if got := mx.Golden([]uint64{0xFF, 0x01}, 8); got != 0x01 {
		t.Errorf("max_signed(-1, 1) = %#x, want 1", got)
	}
	mn, _ := ops.ByName("min_signed")
	if got := mn.Golden([]uint64{0xFF, 0x01}, 8); got != 0xFF {
		t.Errorf("min_signed(-1, 1) = %#x, want -1", got)
	}
}

// TestSignedOpsEndToEnd runs the signed extensions through the DRAM
// simulator like the paper set.
func TestSignedOpsEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, name := range []string{"greater_signed", "greater_equal_signed", "max_signed", "min_signed"} {
		d, err := ops.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ops.SynthesizeCached(d, 8, 0, ops.VariantSIMDRAM)
		if err != nil {
			t.Fatal(err)
		}
		n := 128
		operands := [][]uint64{make([]uint64, n), make([]uint64, n)}
		for i := 0; i < n; i++ {
			operands[0][i] = rng.Uint64() & 0xFF
			operands[1][i] = rng.Uint64() & 0xFF
		}
		got := runProgram(t, s, operands)
		for i := 0; i < n; i++ {
			want := d.Golden([]uint64{operands[0][i], operands[1][i]}, 8)
			if got[i] != want {
				t.Fatalf("%s lane %d (%#x,%#x): dram=%d golden=%d",
					name, i, operands[0][i], operands[1][i], got[i], want)
			}
		}
	}
}
