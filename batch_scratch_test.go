package simdram

import (
	"slices"
	"strings"
	"testing"

	"simdram/internal/isa"
	"simdram/internal/ops"
)

// TestStaleScratchErrorDeterministic prepares a program whose two
// instructions need scratch rows in two different subarrays, then
// starves both of their scratch tails. The stale-program error must
// name the same subarray, the first in (bank, sub) order, on every
// prepare.
func TestStaleScratchErrorDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DRAM.Cols = 64
	cfg.DRAM.Banks = 2
	cfg.DRAM.SubarraysPerBank = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n, w = 64, 8
	// Instruction 0 runs in (1,1), instruction 1 in (0,1): program order
	// is not (bank, sub) order.
	var prog isa.Program
	for _, bank := range []int{1, 0} {
		var vs [3]*Vector
		for i := range vs {
			if vs[i], err = s.AllocVectorAt(n, w, bank, 1); err != nil {
				t.Fatal(err)
			}
		}
		prog = append(prog, isa.Instruction{
			Op: isa.FromOp(ops.OpSub), Dst: vs[0].Handle(), Src: [3]uint16{vs[1].Handle(), vs[2].Handle()},
			Size: n, Width: w, N: 2,
		})
	}
	var first string
	for round := 0; round < 20; round++ {
		pp, err := s.prepareProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		if len(pp.scratch) != 2 || pp.scratch[0].need == 0 {
			t.Fatalf("scratch needs %+v, want one nonzero need in each of two subarrays", pp.scratch)
		}
		var filler []*Vector
		for _, bank := range []int{0, 1} {
			for {
				v, err := s.AllocVectorAt(n, 1, bank, 1)
				if err != nil {
					break
				}
				filler = append(filler, v)
			}
		}
		_, _, err = s.runPreparedAttr(pp, nil, nil)
		if err == nil {
			t.Fatal("a starved prepared program ran")
		}
		if round == 0 {
			first = err.Error()
			if !strings.Contains(first, "subarray (0,1)") {
				t.Fatalf("error %q does not name subarray (0,1), the first in (bank, sub) order", first)
			}
		} else if err.Error() != first {
			t.Fatalf("round %d: error %q, round 0 gave %q", round, err, first)
		}
		for _, v := range filler {
			v.Free()
		}
	}
}

// TestMaxScratchNeeds checks the fold of per-instruction scratch needs:
// one entry per subarray, the largest need, in (bank, sub) order.
func TestMaxScratchNeeds(t *testing.T) {
	got := maxScratchNeeds([]scratchNeed{
		{bank: 1, sub: 0, need: 2}, {bank: 0, sub: 1, need: 3}, {bank: 1, sub: 0, need: 5},
		{bank: 0, sub: 0, need: 0}, {bank: 0, sub: 1, need: 1}, {bank: 1, sub: 0, need: 4},
	})
	want := []scratchNeed{{bank: 0, sub: 0, need: 0}, {bank: 0, sub: 1, need: 3}, {bank: 1, sub: 0, need: 5}}
	if !slices.Equal(got, want) {
		t.Fatalf("maxScratchNeeds = %+v, want %+v", got, want)
	}
}
