package dram

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func testSubarray(t *testing.T) *Subarray {
	t.Helper()
	cfg := TestConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewSubarray(&cfg)
}

func randRow(rng *rand.Rand, words int) []uint64 {
	r := make([]uint64, words)
	for i := range r {
		r[i] = rng.Uint64()
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	good := TestConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("TestConfig invalid: %v", err)
	}
	if err := PaperConfig().Validate(); err != nil {
		t.Fatalf("PaperConfig invalid: %v", err)
	}
	bad := good
	bad.Cols = 100
	if err := bad.Validate(); err == nil {
		t.Error("Cols=100 must not validate")
	}
	bad = good
	bad.NumTRows = 4
	if err := bad.Validate(); err == nil {
		t.Error("NumTRows=4 must not validate")
	}
	bad = good
	bad.RowsPerSubarray = good.ComputeRows() + 2
	if err := bad.Validate(); err == nil {
		t.Error("too-few data rows must not validate")
	}
}

func TestControlRowContents(t *testing.T) {
	s := testSubarray(t)
	for _, w := range s.PeekRow(s.C0Row()) {
		if w != 0 {
			t.Fatal("C0 must be all zeros")
		}
	}
	for _, w := range s.PeekRow(s.C1Row()) {
		if w != ^uint64(0) {
			t.Fatal("C1 must be all ones")
		}
	}
}

func TestAAPCopiesRow(t *testing.T) {
	s := testSubarray(t)
	rng := rand.New(rand.NewSource(1))
	data := randRow(rng, s.Config().WordsPerRow())
	s.Poke(3, data)
	s.AAP(3, 7)
	got := s.PeekRow(7)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("AAP copy mismatch at word %d", i)
		}
	}
	if s.Stats.AAPs != 1 || s.Stats.Activates != 2 || s.Stats.Precharges != 1 {
		t.Errorf("AAP stats wrong: %v", s.Stats)
	}
}

func TestAAPMultiDestination(t *testing.T) {
	s := testSubarray(t)
	rng := rand.New(rand.NewSource(2))
	data := randRow(rng, s.Config().WordsPerRow())
	s.Poke(0, data)
	s.AAP(0, s.TRow(0), s.TRow(1), s.TRow(2))
	for i := 0; i < 3; i++ {
		got := s.PeekRow(s.TRow(i))
		for w := range data {
			if got[w] != data[w] {
				t.Fatalf("multi-dst AAP mismatch in T%d", i)
			}
		}
	}
}

func TestAAPMultiDestinationOutsideComputeRegionPanics(t *testing.T) {
	s := testSubarray(t)
	defer func() {
		if recover() == nil {
			t.Error("multi-row AAP into data rows must panic")
		}
	}()
	s.AAP(0, 1, 2)
}

func TestTRAComputesMajority(t *testing.T) {
	s := testSubarray(t)
	words := s.Config().WordsPerRow()
	err := quick.Check(func(a, b, c uint64) bool {
		ra := make([]uint64, words)
		rb := make([]uint64, words)
		rc := make([]uint64, words)
		for i := range ra {
			ra[i], rb[i], rc[i] = a, b, c
		}
		s.Poke(s.TRow(0), ra)
		s.Poke(s.TRow(1), rb)
		s.Poke(s.TRow(2), rc)
		s.AP(s.TRow(0), s.TRow(1), s.TRow(2))
		want := (a & b) | (a & c) | (b & c)
		for _, r := range [3]int{s.TRow(0), s.TRow(1), s.TRow(2)} {
			for _, w := range s.PeekRow(r) {
				if w != want {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 64})
	if err != nil {
		t.Error(err)
	}
}

func TestAPOnDataRowsPanics(t *testing.T) {
	s := testSubarray(t)
	defer func() {
		if recover() == nil {
			t.Error("AP on data rows must panic")
		}
	}()
	s.AP(0, 1, 2)
}

func TestDCCProvidesComplement(t *testing.T) {
	s := testSubarray(t)
	rng := rand.New(rand.NewSource(3))
	data := randRow(rng, s.Config().WordsPerRow())
	s.Poke(5, data)
	s.AAP(5, s.DCCRow(0))
	neg := s.PeekRow(s.DCCNRow(0))
	for i := range data {
		if neg[i] != ^data[i] {
			t.Fatalf("DCC complement wrong at word %d", i)
		}
	}
	// And the reverse: writing the N row complements the true row.
	s.AAP(5, s.DCCNRow(1))
	pos := s.PeekRow(s.DCCRow(1))
	for i := range data {
		if pos[i] != ^data[i] {
			t.Fatalf("DCCN reverse complement wrong at word %d", i)
		}
	}
}

func TestNotViaDCCRoundTrip(t *testing.T) {
	// The codegen idiom: copy x into DCC0, read !x from DCC0N into a T row.
	s := testSubarray(t)
	rng := rand.New(rand.NewSource(4))
	data := randRow(rng, s.Config().WordsPerRow())
	s.Poke(9, data)
	s.AAP(9, s.DCCRow(0))
	s.AAP(s.DCCNRow(0), s.TRow(3))
	got := s.PeekRow(s.TRow(3))
	for i := range data {
		if got[i] != ^data[i] {
			t.Fatalf("NOT idiom failed at word %d", i)
		}
	}
}

func TestControlRowsReadOnly(t *testing.T) {
	s := testSubarray(t)
	defer func() {
		if recover() == nil {
			t.Error("writing C0 must panic")
		}
	}()
	s.AAP(0, s.C0Row())
}

func TestHostReadWrite(t *testing.T) {
	s := testSubarray(t)
	rng := rand.New(rand.NewSource(5))
	data := randRow(rng, s.Config().WordsPerRow())
	s.WriteRow(11, data)
	got := make([]uint64, s.Config().WordsPerRow())
	s.ReadRowInto(11, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatal("host write/read mismatch")
		}
	}
	if s.Stats.HostReads != 1 || s.Stats.HostWrites != 1 {
		t.Errorf("host stats wrong: %v", s.Stats)
	}
	if s.Stats.EnergyPJ <= 0 {
		t.Error("energy must accrue")
	}
}

func TestModuleAggregation(t *testing.T) {
	mod, err := NewModule(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	s00 := mod.Subarray(0, 0)
	s11 := mod.Subarray(1, 1)
	data := make([]uint64, mod.Config().WordsPerRow())
	s00.Poke(0, data)
	s00.AAP(0, 1)
	s11.AAP(0, 1)
	s11.AP(s11.TRow(0), s11.TRow(1), s11.TRow(2))
	total := mod.Stats()
	if total.AAPs != 2 || total.APs != 1 {
		t.Errorf("module stats wrong: %v", total)
	}
	mod.ResetStats()
	if got := mod.Stats(); got.AAPs != 0 || got.EnergyPJ != 0 {
		t.Errorf("ResetStats left residue: %v", got)
	}
}

func TestTimingFormulas(t *testing.T) {
	tm := DDR4_2400()
	if tm.AAPLatency() <= tm.APLatency() {
		t.Error("AAP must cost more than AP")
	}
	if tm.APLatency() != tm.TRAS+tm.TRP {
		t.Error("AP latency formula changed unexpectedly")
	}
	if f := tm.RefreshFactor(); f <= 1.0 || f > 1.1 {
		t.Errorf("DDR4 refresh factor = %f, expected a few percent above 1", f)
	}
	noRefresh := tm
	noRefresh.TREFI = 0
	if noRefresh.RefreshFactor() != 1 {
		t.Error("zero tREFI must disable the refresh tax")
	}
}

func TestEnergyFormulas(t *testing.T) {
	e := DDR4Energy()
	if e.AAPEnergy(1) >= e.AAPEnergy(3) {
		t.Error("multi-destination AAP should cost more than single")
	}
	if e.APEnergy() <= 0 {
		t.Error("AP energy must be positive")
	}
}

func TestInjectBitFlips(t *testing.T) {
	s := testSubarray(t)
	words := s.Config().WordsPerRow()
	mask := make([]uint64, words)
	mask[0] = 0b1010
	before := slices.Clone(s.PeekRow(2))
	s.InjectBitFlips(2, mask)
	after := s.PeekRow(2)
	if after[0] != before[0]^0b1010 {
		t.Error("bit flips not applied")
	}
}

func TestStatsSubAndAdd(t *testing.T) {
	a := Stats{AAPs: 5, APs: 3, EnergyPJ: 100}
	b := Stats{AAPs: 2, APs: 1, EnergyPJ: 40}
	d := a.Sub(b)
	if d.AAPs != 3 || d.APs != 2 || d.EnergyPJ != 60 {
		t.Errorf("Sub wrong: %+v", d)
	}
	b.Add(d)
	if b.AAPs != a.AAPs || b.EnergyPJ != a.EnergyPJ {
		t.Errorf("Add wrong: %+v", b)
	}
}
