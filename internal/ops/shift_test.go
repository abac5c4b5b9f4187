package ops_test

import (
	"testing"

	"simdram/internal/dram"
	"simdram/internal/ops"
	"simdram/internal/testoracle"
)

func TestShiftCircuitsAreGateFree(t *testing.T) {
	// A vertical-layout shift is pure wiring: the circuit must contain no
	// gates at all, so the μProgram degenerates to row copies — exactly
	// the paper's "shift by copying row j to row j+1".
	for _, left := range []bool{true, false} {
		for _, k := range []int{0, 1, 3, 8} {
			c, err := ops.BuildShift(8, k, left)
			if err != nil {
				t.Fatal(err)
			}
			if g := c.GateCount(); g != 0 {
				t.Errorf("shift k=%d left=%t has %d gates, want 0", k, left, g)
			}
		}
	}
	if _, err := ops.BuildShift(8, 9, true); err == nil {
		t.Error("shift distance beyond width must error")
	}
	if _, err := ops.BuildShift(8, -1, true); err == nil {
		t.Error("negative shift must error")
	}
}

func TestShiftProgramIsRowCopies(t *testing.T) {
	d, err := ops.ByName("shift_left")
	if err != nil {
		t.Fatal(err)
	}
	s, err := ops.SynthesizeCached(d, 16, 0, ops.VariantSIMDRAM)
	if err != nil {
		t.Fatal(err)
	}
	if s.Program.NumAP() != 0 {
		t.Errorf("shift needs no TRA, have %d APs", s.Program.NumAP())
	}
	// One AAP per destination row: 15 data copies + 1 zero fill.
	if got := s.Program.NumAAP(); got != 16 {
		t.Errorf("shift_left/16 uses %d AAPs, want 16", got)
	}
	if err := testoracle.CheckProgram(s.Program, dram.TestConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestShiftGolden(t *testing.T) {
	sl, _ := ops.ByName("shift_left")
	sr, _ := ops.ByName("shift_right")
	if got := sl.Golden([]uint64{0x81}, 8); got != 0x02 {
		t.Errorf("0x81 << 1 = %#x, want 0x02", got)
	}
	if got := sr.Golden([]uint64{0x81}, 8); got != 0x40 {
		t.Errorf("0x81 >> 1 = %#x, want 0x40", got)
	}
}

func TestShiftDistancesExhaustive(t *testing.T) {
	w := 6
	for _, left := range []bool{true, false} {
		for k := 0; k <= w; k++ {
			c, err := ops.BuildShift(w, k, left)
			if err != nil {
				t.Fatal(err)
			}
			for v := uint64(0); v < 64; v++ {
				got := testoracle.EvalUint(c.EvalWords, []int{w}, []uint64{v}, []int{w})[0]
				var want uint64
				if left {
					want = (v << uint(k)) & 0x3F
				} else {
					want = v >> uint(k)
				}
				if got != want {
					t.Fatalf("k=%d left=%t v=%d: got %d want %d", k, left, v, got, want)
				}
			}
		}
	}
}
