package dram

import (
	"math"
	"math/rand"
	"reflect"
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
	for _, w := range s.PeekRow(s.cfg.C0Row()) {
		if w != 0 {
			t.Fatal("C0 must be all zeros")
		}
	}
	for _, w := range s.PeekRow(s.cfg.C1Row()) {
		if w != ^uint64(0) {
			t.Fatal("C1 must be all ones")
		}
	}
}

func TestAAPCopiesRow(t *testing.T) {
	s := testSubarray(t)
	rng := rand.New(rand.NewSource(1))
	data := randRow(rng, s.cfg.WordsPerRow())
	s.Poke(3, data)
	s.aap(3, 7)
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
	data := randRow(rng, s.cfg.WordsPerRow())
	s.Poke(0, data)
	s.aap(0, s.cfg.tRow(0), s.cfg.tRow(1), s.cfg.tRow(2))
	for i := 0; i < 3; i++ {
		got := s.PeekRow(s.cfg.tRow(i))
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
	s.aap(0, 1, 2)
}

func TestTRAComputesMajority(t *testing.T) {
	s := testSubarray(t)
	words := s.cfg.WordsPerRow()
	err := quick.Check(func(a, b, c uint64) bool {
		ra := make([]uint64, words)
		rb := make([]uint64, words)
		rc := make([]uint64, words)
		for i := range ra {
			ra[i], rb[i], rc[i] = a, b, c
		}
		s.Poke(s.cfg.tRow(0), ra)
		s.Poke(s.cfg.tRow(1), rb)
		s.Poke(s.cfg.tRow(2), rc)
		s.ap(s.cfg.tRow(0), s.cfg.tRow(1), s.cfg.tRow(2))
		want := (a & b) | (a & c) | (b & c)
		for _, r := range [3]int{s.cfg.tRow(0), s.cfg.tRow(1), s.cfg.tRow(2)} {
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
	s.ap(0, 1, 2)
}

func TestDCCProvidesComplement(t *testing.T) {
	s := testSubarray(t)
	rng := rand.New(rand.NewSource(3))
	data := randRow(rng, s.cfg.WordsPerRow())
	s.Poke(5, data)
	s.aap(5, s.cfg.dccRow(0))
	neg := s.PeekRow(s.cfg.dccNRow(0))
	for i := range data {
		if neg[i] != ^data[i] {
			t.Fatalf("DCC complement wrong at word %d", i)
		}
	}
	// And the reverse: writing the N row complements the true row.
	s.aap(5, s.cfg.dccNRow(1))
	pos := s.PeekRow(s.cfg.dccRow(1))
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
	data := randRow(rng, s.cfg.WordsPerRow())
	s.Poke(9, data)
	s.aap(9, s.cfg.dccRow(0))
	s.aap(s.cfg.dccNRow(0), s.cfg.tRow(3))
	got := s.PeekRow(s.cfg.tRow(3))
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
	s.aap(0, s.cfg.C0Row())
}

func TestHostReadWrite(t *testing.T) {
	s := testSubarray(t)
	rng := rand.New(rand.NewSource(5))
	data := randRow(rng, s.cfg.WordsPerRow())
	s.WriteRow(11, data)
	got := make([]uint64, s.cfg.WordsPerRow())
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

// TestRowViewsChargeLikeRowAccess fills rows through WriteView and
// ChargeWrites and reads them through ReadView on one subarray, and
// writes and reads them row by row through WriteRow and ReadRowInto on
// another: the contents, the stats (energy bit for bit) and the traced
// commands must agree, with OnCommand hooks set (the views charge row
// by row) and without (they charge all rows at once). Views reach data
// rows only.
func TestRowViewsChargeLikeRowAccess(t *testing.T) {
	for _, hooked := range []bool{false, true} {
		views, single := testSubarray(t), testSubarray(t)
		var viewCmds, singleCmds []Command
		if hooked {
			views.OnCommand = func(c Command) { viewCmds = append(viewCmds, c) }
			single.OnCommand = func(c Command) { singleCmds = append(singleCmds, c) }
		}
		rng := rand.New(rand.NewSource(6))
		words := views.cfg.WordsPerRow()
		const base, n = 3, 5
		for round := 0; round < 3; round++ {
			rows := views.WriteView(base, n)
			for r := range rows {
				copy(rows[r], randRow(rng, words))
				single.WriteRow(base+r, rows[r])
			}
			views.ChargeWrites(base, n)
			got := views.ReadView(base, n)
			for r := range got {
				want := make([]uint64, words)
				single.ReadRowInto(base+r, want)
				if !reflect.DeepEqual(got[r], want) {
					t.Fatalf("hooked %v, round %d: row %d differs", hooked, round, base+r)
				}
			}
		}
		if views.Stats != single.Stats || math.Float64bits(views.Stats.EnergyPJ) != math.Float64bits(single.Stats.EnergyPJ) {
			t.Fatalf("hooked %v: views charged %v, single-row access %v", hooked, views.Stats, single.Stats)
		}
		if want := int64(3 * n); views.Stats.HostWrites != want || views.Stats.HostReads != want {
			t.Fatalf("hooked %v: views charged %v, want %d host writes and reads", hooked, views.Stats, want)
		}
		if !reflect.DeepEqual(viewCmds, singleCmds) || hooked != (len(viewCmds) == 6*n) {
			t.Fatalf("hooked %v: views traced %v, single-row access %v", hooked, viewCmds, singleCmds)
		}
	}
	views := testSubarray(t)
	dataRows := views.cfg.DataRows()
	for _, c := range []struct{ base, n int }{{-1, 2}, {dataRows - 1, 2}, {dataRows, 1}, {views.cfg.C0Row(), 1}, {0, 0}} {
		for name, view := range map[string]func(){
			"WriteView":    func() { views.WriteView(c.base, c.n) },
			"ReadView":     func() { views.ReadView(c.base, c.n) },
			"ChargeWrites": func() { views.ChargeWrites(c.base, c.n) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s of rows [%d,%d) outside the data region did not panic", name, c.base, c.base+c.n)
					}
				}()
				view()
			}()
		}
	}
}

func TestModuleAggregation(t *testing.T) {
	mod, err := NewModule(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	s00 := mod.Subarray(0, 0)
	s11 := mod.Subarray(1, 1)
	cfg := mod.Config()
	data := make([]uint64, cfg.WordsPerRow())
	s00.Poke(0, data)
	s00.aap(0, 1)
	s11.aap(0, 1)
	s11.ap(s11.cfg.tRow(0), s11.cfg.tRow(1), s11.cfg.tRow(2))
	total := mod.Stats()
	if total.AAPs != 2 || total.APs != 1 {
		t.Errorf("module stats wrong: %v", total)
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
	words := s.cfg.WordsPerRow()
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
