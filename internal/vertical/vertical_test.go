package vertical

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"simdram/internal/raceflag"
)

func TestTranspose64x64Involution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a, orig [64]uint64
	for i := range a {
		a[i] = rng.Uint64()
		orig[i] = a[i]
	}
	swapRounds(&a, 6)
	swapRounds(&a, 6)
	if a != orig {
		t.Fatal("transpose twice must be the identity")
	}
}

func TestTranspose64x64BitMapping(t *testing.T) {
	var a [64]uint64
	// Set bit (r=5, c=17).
	a[5] = 1 << 17
	swapRounds(&a, 6)
	if a[17] != 1<<5 {
		t.Fatalf("bit (5,17) should map to (17,5); a[17]=%#x", a[17])
	}
}

// transposeCases covers every width with element counts around block
// boundaries, each into exactly fitting rows and into rows with 128
// spare lanes.
func transposeCases() []struct{ width, n, lanes int } {
	var cases []struct{ width, n, lanes int }
	for width := 1; width <= 64; width++ {
		for _, n := range []int{1, 63, 64, 65, 255, 256} {
			fit := (n + 63) / 64 * 64
			for _, lanes := range []int{fit, fit + 128} {
				cases = append(cases, struct{ width, n, lanes int }{width, n, lanes})
			}
		}
	}
	return cases
}

// garbageRows returns width rows of lanes/64 random words: what a
// caller's reused scratch holds before an Into conversion.
func garbageRows(rng *rand.Rand, width, lanes int) [][]uint64 {
	rows := MakeRows(width, lanes/64)
	for _, row := range rows {
		for w := range row {
			row[w] = rng.Uint64()
		}
	}
	return rows
}

func equalRows(a, b [][]uint64, width int) bool {
	for i := 0; i < width; i++ {
		for w := range a[i] {
			if a[i][w] != b[i][w] {
				return false
			}
		}
	}
	return true
}

func TestToVerticalMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range transposeCases() {
		// Unmasked values: bits at and above width must be dropped.
		vals := make([]uint64, c.n)
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		naive := toVerticalNaive(vals, c.width, c.lanes)
		fast, err := ToVertical(vals, c.width, c.lanes)
		if err != nil {
			t.Fatal(err)
		}
		if !equalRows(fast, naive, c.width) {
			t.Fatalf("width %d n %d lanes %d: ToVertical differs from the naive transpose", c.width, c.n, c.lanes)
		}
		into := garbageRows(rng, c.width, c.lanes)
		if err := ToVerticalInto(into, vals, c.width); err != nil {
			t.Fatal(err)
		}
		if !equalRows(into, naive, c.width) {
			t.Fatalf("width %d n %d lanes %d: ToVerticalInto differs from the naive transpose", c.width, c.n, c.lanes)
		}
		// A splat is the transpose of n copies of one value.
		val := rng.Uint64()
		for i := range vals {
			vals[i] = val
		}
		splat := garbageRows(rng, c.width, c.lanes)
		if err := SplatInto(splat, val, c.width, c.n); err != nil {
			t.Fatal(err)
		}
		if !equalRows(splat, toVerticalNaive(vals, c.width, c.lanes), c.width) {
			t.Fatalf("width %d n %d lanes %d: SplatInto(%#x) differs from the naive transpose", c.width, c.n, c.lanes, val)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Every width and block boundary: naive rows, with junk in the lanes
	// past n as computed DRAM rows have, read back horizontally.
	rng := rand.New(rand.NewSource(3))
	for _, c := range transposeCases() {
		vals := make([]uint64, c.n)
		for i := range vals {
			vals[i] = rng.Uint64() & widthMask(c.width)
		}
		rows := toVerticalNaive(vals, c.width, c.lanes)
		for _, row := range rows {
			for lane := c.n; lane < c.lanes; lane++ {
				row[lane/64] |= rng.Uint64() & (1 << uint(lane%64))
			}
		}
		back, err := ToHorizontal(rows, c.width, c.n)
		if err != nil {
			t.Fatal(err)
		}
		into := make([]uint64, c.n)
		for i := range into {
			into[i] = rng.Uint64()
		}
		if err := ToHorizontalInto(into, rows, c.width); err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if back[i] != vals[i] || into[i] != vals[i] {
				t.Fatalf("width %d n %d lanes %d element %d: ToHorizontal %#x, ToHorizontalInto %#x, want %#x",
					c.width, c.n, c.lanes, i, back[i], into[i], vals[i])
			}
		}
	}
	err := quick.Check(func(seed int64, widthRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 1 + int(widthRaw)%64
		n := 1 + rng.Intn(500)
		lanes := ((n + 63) / 64) * 64
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() & widthMask(width)
		}
		rows, err := ToVertical(vals, width, lanes)
		if err != nil {
			return false
		}
		back, err := ToHorizontal(rows, width, n)
		if err != nil {
			return false
		}
		for i := range vals {
			if back[i] != vals[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestToVerticalValidation(t *testing.T) {
	if _, err := ToVertical(nil, 0, 64); err == nil {
		t.Error("width 0 must error")
	}
	if _, err := ToVertical(nil, 65, 64); err == nil {
		t.Error("width 65 must error")
	}
	if _, err := ToVertical(make([]uint64, 10), 8, 60); err == nil {
		t.Error("non-multiple-of-64 lanes must error")
	}
	if _, err := ToVertical(make([]uint64, 100), 8, 64); err == nil {
		t.Error("lanes < len(vals) must error")
	}
	rows := MakeRows(8, 1)
	if err := ToVerticalInto(rows[:7], nil, 8); err == nil {
		t.Error("ToVerticalInto with too few rows must error")
	}
	if err := ToVerticalInto(rows, make([]uint64, 65), 8); err == nil {
		t.Error("ToVerticalInto past the rows' lanes must error")
	}
	if err := SplatInto(rows, 1, 8, 65); err == nil {
		t.Error("SplatInto past the rows' lanes must error")
	}
	if err := ToHorizontalInto(make([]uint64, 65), rows, 8); err == nil {
		t.Error("ToHorizontalInto past the rows' lanes must error")
	}
}

// TestIntoConversionsZeroAlloc pins the Into conversions, which the
// facade calls once per stored or loaded segment, at zero allocations.
func TestIntoConversionsZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector allocates; gate runs in the non-race CI job")
	}
	vals := make([]uint64, 200)
	rows := MakeRows(16, 4)
	allocs := testing.AllocsPerRun(100, func() {
		if ToVerticalInto(rows, vals, 16) != nil || SplatInto(rows, 0xBEEF, 16, 200) != nil ||
			ToHorizontalInto(vals, rows, 16) != nil {
			t.Fatal("conversion failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Into conversions: %v allocs/run, want 0", allocs)
	}
}

func TestVerticalColumnSemantics(t *testing.T) {
	// Element j must occupy column j: checking one element's bits land in
	// consecutive rows at the same column.
	vals := make([]uint64, 70)
	vals[69] = 0b1011
	rows, err := ToVertical(vals, 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	col, word, bit := 69, 69/64, uint(69%64)
	_ = col
	for i, want := range []uint64{1, 1, 0, 1} {
		got := (rows[i][word] >> bit) & 1
		if got != want {
			t.Fatalf("row %d column 69: got %d want %d", i, got, want)
		}
	}
}

func TestUnitAccounting(t *testing.T) {
	u := NewUnit(DefaultUnitConfig())
	vals := make([]uint64, 256) // 256 × 4 B = 16 cache lines at width 32
	rows := MakeRows(32, 4)
	err := u.HToV(1, rows, vals, 32)
	if err != nil {
		t.Fatal(err)
	}
	if u.Stats.LinesTransposed != 16 {
		t.Errorf("lines = %d, want 16", u.Stats.LinesTransposed)
	}
	if u.Stats.EnergyPJ <= 0 || u.Stats.LatencyNs <= 0 {
		t.Error("unit must accrue cost")
	}
	// Re-transposing the same object hits the buffer.
	err = u.HToV(1, rows, vals, 32)
	if err != nil {
		t.Fatal(err)
	}
	if u.Stats.BufferHits != 16 {
		t.Errorf("hits = %d, want 16", u.Stats.BufferHits)
	}
	if u.Stats.LinesTransposed != 16 {
		t.Errorf("lines after hit = %d, want still 16", u.Stats.LinesTransposed)
	}
}

func TestUnitBufferEviction(t *testing.T) {
	cfg := DefaultUnitConfig()
	cfg.BufferLines = 4
	u := NewUnit(cfg)
	vals := make([]uint64, 64) // 8 lines at width 64
	rows := MakeRows(64, 1)
	if err := u.HToV(1, rows, vals, 64); err != nil {
		t.Fatal(err)
	}
	if err := u.HToV(1, rows, vals, 64); err != nil {
		t.Fatal(err)
	}
	// Only the last 4 lines fit; FIFO means all 8 miss again on repeat.
	if u.Stats.BufferHits != 0 {
		t.Errorf("hits = %d, want 0 with a 4-line buffer and 8-line object", u.Stats.BufferHits)
	}
}

// fifoUnit is the object tracker as it was before the ring buffer:
// a slice popped at the front and appended at the back. The ring must
// reproduce its hit, miss and eviction sequence exactly.
type fifoUnit struct {
	cfg   UnitConfig
	Stats UnitStats
	fifo  []uint64
	tags  map[uint64]bool
}

func (u *fifoUnit) touch(objID uint64, lines int) {
	for l := 0; l < lines; l++ {
		tag := lineTag(objID, l)
		if u.tags[tag] {
			u.Stats.BufferHits++
			continue
		}
		u.Stats.LinesTransposed++
		u.Stats.LatencyNs += u.cfg.LatencyPerLineNs
		u.Stats.EnergyPJ += u.cfg.EnergyPerLinePJ
		if u.cfg.BufferLines > 0 {
			if len(u.fifo) >= u.cfg.BufferLines {
				delete(u.tags, u.fifo[0])
				u.fifo = u.fifo[1:]
			}
			u.fifo = append(u.fifo, tag)
			u.tags[tag] = true
		}
	}
}

func TestUnitRingMatchesFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, lines := range []int{0, 1, 2, 3, 4, 7, 64} {
		cfg := DefaultUnitConfig()
		cfg.BufferLines = lines
		u, ref := NewUnit(cfg), &fifoUnit{cfg: cfg, tags: map[uint64]bool{}}
		for step := 0; step < 4000; step++ {
			obj, n := uint64(1+rng.Intn(6)), rng.Intn(2*lines+3)
			u.touch(obj, n)
			ref.touch(obj, n)
			if u.Stats != ref.Stats {
				t.Fatalf("buffer %d lines, step %d (object %d, %d lines): ring %+v, FIFO %+v",
					lines, step, obj, n, u.Stats, ref.Stats)
			}
		}
		if u.Stats.BufferHits == 0 && lines > 0 {
			t.Fatalf("buffer %d lines: no hits, the comparison is vacuous", lines)
		}
	}
}

func BenchmarkTranspose64x64(b *testing.B) {
	var a [64]uint64
	rng := rand.New(rand.NewSource(1))
	for i := range a {
		a[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		swapRounds(&a, 6)
	}
}

// benchLanes is one serve-hot segment: a 256-column row.
const benchLanes = 256

// BenchmarkToVertical times the width-reduced transpose into reused
// rows (ToVerticalInto, what Vector.Store runs per segment).
func BenchmarkToVertical(b *testing.B) {
	for _, width := range []int{1, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			vals := make([]uint64, benchLanes)
			for i := range vals {
				vals[i] = rng.Uint64() & widthMask(width)
			}
			rows := MakeRows(width, benchLanes/64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ToVerticalInto(rows, vals, width); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchLanes), "ns/elem")
		})
	}
}

// BenchmarkToHorizontal times the inverse into a reused slice
// (ToHorizontalInto, what Vector.Load runs per segment).
func BenchmarkToHorizontal(b *testing.B) {
	for _, width := range []int{1, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			vals := make([]uint64, benchLanes)
			for i := range vals {
				vals[i] = rng.Uint64() & widthMask(width)
			}
			rows, err := ToVertical(vals, width, benchLanes)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ToHorizontalInto(vals, rows, width); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchLanes), "ns/elem")
		})
	}
}

func BenchmarkToVertical32bit1M(b *testing.B) {
	vals := make([]uint64, 1<<20)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = rng.Uint64() & 0xFFFFFFFF
	}
	b.SetBytes(int64(len(vals) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ToVertical(vals, 32, len(vals)); err != nil {
			b.Fatal(err)
		}
	}
}
