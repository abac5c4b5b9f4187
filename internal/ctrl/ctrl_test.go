package ctrl

import (
	"math/rand"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/ops"
	"simdram/internal/uprog"
	"simdram/internal/vertical"
)

func TestExecuteAcrossBanks(t *testing.T) {
	cfg := dram.TestConfig()
	mod, err := dram.NewModule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := New(mod, ops.VariantSIMDRAM)
	d, err := ops.ByName("addition")
	if err != nil {
		t.Fatal(err)
	}
	w := 8
	p, err := u.Program(d, w, 0)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	// Two segments in different banks, one extra in bank 0 (serializes).
	segs := []Segment{
		{Bank: 0, Sub: 0},
		{Bank: 1, Sub: 0},
		{Bank: 0, Sub: 1},
	}
	lanes := cfg.Cols
	type expected struct{ a, b []uint64 }
	exp := make([]expected, len(segs))
	bind := uprog.Binding{SrcBase: []int{0, w}, DstBase: 2 * w, ScratchBase: 3 * w}
	for i := range segs {
		segs[i].Binding = bind
		av := make([]uint64, lanes)
		bv := make([]uint64, lanes)
		for j := range av {
			av[j] = rng.Uint64() & 0xFF
			bv[j] = rng.Uint64() & 0xFF
		}
		exp[i] = expected{av, bv}
		ra, _ := vertical.ToVertical(av, w, lanes)
		rb, _ := vertical.ToVertical(bv, w, lanes)
		sa := mod.Subarray(segs[i].Bank, segs[i].Sub)
		for r := 0; r < w; r++ {
			sa.Poke(r, ra[r])
			sa.Poke(w+r, rb[r])
		}
	}
	st, err := runOnce(u, []Job{{Program: p, Segments: segs}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Timing: bank 0 runs two segments serially → 2× program latency.
	want := 2 * p.LatencyNs(cfg.Timing)
	if st.BusyNs != want {
		t.Errorf("BusyNs = %f, want %f (bank-serialized)", st.BusyNs, want)
	}
	if st.EnergyPJ <= 0 || st.Commands != int64(3*len(p.Ops)) {
		t.Errorf("stats wrong: %+v", st)
	}
	// Functional check on every segment.
	for i, seg := range segs {
		sa := mod.Subarray(seg.Bank, seg.Sub)
		rows := make([][]uint64, w)
		for r := 0; r < w; r++ {
			rows[r] = sa.PeekRow(bind.DstBase + r)
		}
		got, err := vertical.ToHorizontal(rows, w, lanes)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			want := (exp[i].a[j] + exp[i].b[j]) & 0xFF
			if got[j] != want {
				t.Fatalf("segment %d lane %d: got %d want %d", i, j, got[j], want)
			}
		}
	}
}

func TestExecuteValidation(t *testing.T) {
	mod, _ := dram.NewModule(dram.TestConfig())
	u := New(mod, ops.VariantSIMDRAM)
	d, _ := ops.ByName("addition")
	p, err := u.Program(d, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(u, []Job{{Program: p}}, nil); err == nil {
		t.Error("empty segment list must error")
	}
	bad := []Segment{{Bank: 99, Sub: 0, Binding: uprog.Binding{SrcBase: []int{0, 8}, DstBase: 16, ScratchBase: 24}}}
	if _, err := runOnce(u, []Job{{Program: p, Segments: bad}}, nil); err == nil {
		t.Error("out-of-range bank must error")
	}
}

func TestPerfModelScaling(t *testing.T) {
	cfg := dram.PaperConfig()
	d, _ := ops.ByName("addition")
	s, err := ops.SynthesizeCached(d, 32, 0, ops.VariantSIMDRAM)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Program
	m1 := PerfModel{Cfg: cfg, Banks: 1}
	m16 := PerfModel{Cfg: cfg, Banks: 16}
	if m16.Throughput(p) != 16*m1.Throughput(p) {
		t.Error("throughput must scale linearly with banks")
	}
	// Latency for one full 16-bank round must equal one program latency
	// plus the sustained refresh tax.
	n := cfg.Cols * 16
	want := p.LatencyNs(cfg.Timing) * cfg.Timing.RefreshFactor()
	if got := m16.LatencyNs(p, n); got != want {
		t.Errorf("latency for one round = %f, want %f", got, want)
	}
	// Energy does not depend on bank parallelism, only on work.
	if m1.EnergyPJ(p, n) != m16.EnergyPJ(p, n) {
		t.Error("energy must be parallelism-independent")
	}
	if m16.OpsPerJoule(p) <= 0 {
		t.Error("ops/J must be positive")
	}
}

func TestPerfModelRounding(t *testing.T) {
	cfg := dram.PaperConfig()
	d, _ := ops.ByName("greater")
	s, err := ops.SynthesizeCached(d, 16, 0, ops.VariantSIMDRAM)
	if err != nil {
		t.Fatal(err)
	}
	m := PerfModel{Cfg: cfg, Banks: 4}
	p := s.Program
	one := m.LatencyNs(p, 1)
	full := m.LatencyNs(p, cfg.Cols*4)
	if one != full {
		t.Errorf("1 element and one full round should cost the same: %f vs %f", one, full)
	}
	more := m.LatencyNs(p, cfg.Cols*4+1)
	if more != 2*full {
		t.Errorf("crossing the round boundary must double latency: %f vs %f", more, 2*full)
	}
}
