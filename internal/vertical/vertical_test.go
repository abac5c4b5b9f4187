package vertical

import (
	"fmt"
	"math"
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

// vectorPaths lists the conversion paths this CPU runs: the block
// transpose and, with AVX2, the vector byte-plane store and load.
func vectorPaths() []bool {
	if haveVector {
		return []bool{false, true}
	}
	return []bool{false}
}

// setVector selects the vector conversions and returns a function
// restoring the previous choice.
func setVector(on bool) (restore func()) {
	prev := useVector
	useVector = on
	return func() { useVector = prev }
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
		for _, vec := range vectorPaths() {
			into := garbageRows(rng, c.width, c.lanes)
			restore := setVector(vec)
			err := ToVerticalInto(into, vals, c.width)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if !equalRows(into, naive, c.width) {
				t.Fatalf("width %d n %d lanes %d vector=%v: ToVerticalInto differs from the naive transpose", c.width, c.n, c.lanes, vec)
			}
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
		for _, vec := range vectorPaths() {
			into := make([]uint64, c.n)
			for i := range into {
				into[i] = rng.Uint64()
			}
			restore := setVector(vec)
			err := ToHorizontalInto(into, rows, c.width)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			for i := range vals {
				if back[i] != vals[i] || into[i] != vals[i] {
					t.Fatalf("width %d n %d lanes %d vector=%v element %d: ToHorizontal %#x, ToHorizontalInto %#x, want %#x",
						c.width, c.n, c.lanes, vec, i, back[i], into[i], vals[i])
				}
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

// FuzzToVerticalInto holds both ToVerticalInto paths to the naive
// transpose over widths 1-64, element counts 0 to the rows' lanes and
// values with bits set at and above the width, into rows holding
// garbage; each result must also read back through ToHorizontalInto.
func FuzzToVerticalInto(f *testing.F) {
	for width := uint8(1); width <= 64; width += 7 {
		f.Add(int64(width), width, uint8(width%4), uint16(width)*5)
	}
	f.Add(int64(1), uint8(16), uint8(3), uint16(256))
	f.Add(int64(2), uint8(8), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, w, words uint8, n uint16) {
		width, lanes := 1+int(w)%64, 64*(1+int(words)%4)
		rng := rand.New(rand.NewSource(seed))
		vals := make([]uint64, int(n)%(lanes+1))
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		naive := toVerticalNaive(vals, width, lanes)
		back := make([]uint64, len(vals))
		for _, vec := range vectorPaths() {
			rows := garbageRows(rng, width, lanes)
			restore := setVector(vec)
			err := ToVerticalInto(rows, vals, width)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if !equalRows(rows, naive, width) {
				t.Fatalf("width %d n %d lanes %d vector=%v: ToVerticalInto differs from the naive transpose", width, len(vals), lanes, vec)
			}
			if err := ToHorizontalInto(back, rows, width); err != nil {
				t.Fatal(err)
			}
			for i, v := range vals {
				if back[i] != v&widthMask(width) {
					t.Fatalf("width %d n %d vector=%v element %d: read back %#x, want %#x", width, len(vals), vec, i, back[i], v&widthMask(width))
				}
			}
		}
	})
}

// FuzzToHorizontalInto holds both ToHorizontalInto paths to the naive
// bit-at-a-time load over widths 1-64, 1-4 words of rows and element
// counts 0 to the rows' lanes. The rows hold random garbage, in the
// lanes past the last element too, and dst holds garbage before the
// load.
func FuzzToHorizontalInto(f *testing.F) {
	for width := uint8(1); width <= 64; width += 7 {
		f.Add(int64(width), width, uint8(width%4), uint16(width)*5)
	}
	f.Add(int64(1), uint8(16), uint8(3), uint16(256))
	f.Add(int64(2), uint8(32), uint8(3), uint16(200))
	f.Add(int64(3), uint8(8), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, w, words uint8, n uint16) {
		width, lanes := 1+int(w)%64, 64*(1+int(words)%4)
		rng := rand.New(rand.NewSource(seed))
		n = uint16(int(n) % (lanes + 1))
		rows := garbageRows(rng, width, lanes)
		naive := toHorizontalNaive(rows, width, int(n))
		for _, vec := range vectorPaths() {
			dst := make([]uint64, n)
			for i := range dst {
				dst[i] = rng.Uint64()
			}
			restore := setVector(vec)
			err := ToHorizontalInto(dst, rows, width)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range naive {
				if dst[i] != v {
					t.Fatalf("width %d n %d lanes %d vector=%v element %d: %#x, want %#x", width, n, lanes, vec, i, dst[i], v)
				}
			}
		}
	})
}

// TestIntoConversionsZeroAlloc pins the Into conversions, which the
// facade calls once per stored or loaded segment, at zero allocations:
// on every path this CPU runs, at the widths the byte-plane store and
// load cover and one above, with a partial last word.
func TestIntoConversionsZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector allocates; gate runs in the non-race CI job")
	}
	vals := make([]uint64, 200)
	rows := MakeRows(64, 4)
	for _, vec := range vectorPaths() {
		for _, width := range []int{1, 8, 16, 32, 64} {
			restore := setVector(vec)
			allocs := testing.AllocsPerRun(100, func() {
				if ToVerticalInto(rows, vals, width) != nil || SplatInto(rows, 0xBEEF, width, 200) != nil ||
					ToHorizontalInto(vals, rows, width) != nil {
					t.Error("conversion failed")
				}
			})
			restore()
			if allocs != 0 {
				t.Fatalf("Into conversions, width %d vector=%v: %v allocs/run, want 0", width, vec, allocs)
			}
		}
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

// TestUnitAccounting checks that every transposition pays for every
// line it moves: repeating one, or moving the same values the other
// way, is charged again in full.
func TestUnitAccounting(t *testing.T) {
	cfg := DefaultUnitConfig()
	u := NewUnit(cfg)
	vals := make([]uint64, 256) // 256 × 4 B = 16 cache lines at width 32
	rows := MakeRows(32, 4)
	var lines int64
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"store", func() error { return u.HToV(rows, vals, 32) }},
		{"repeated store", func() error { return u.HToV(rows, vals, 32) }},
		{"load", func() error { return u.VToH(vals, rows, 32) }},
		{"splat", func() error { return u.Splat(rows, 5, 32, len(vals)) }},
	} {
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		lines += 16
		st := u.Stats
		if st.LinesTransposed != lines ||
			math.Abs(st.LatencyNs-float64(lines)*cfg.LatencyPerLineNs) > 1e-9 ||
			math.Abs(st.EnergyPJ-float64(lines)*cfg.EnergyPerLinePJ) > 1e-9 {
			t.Fatalf("after %s: stats %+v, want %d lines at %g ns and %g pJ each",
				step.name, st, lines, cfg.LatencyPerLineNs, cfg.EnergyPerLinePJ)
		}
	}
}

// TestUnitTouchZeroAlloc gates the unit's charge: touch allocates
// nothing.
func TestUnitTouchZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector allocates; gate runs in the non-race CI job")
	}
	u := NewUnit(DefaultUnitConfig())
	if allocs := testing.AllocsPerRun(100, func() { u.touch(40) }); allocs != 0 {
		t.Fatalf("touch allocated %.1f times per call, want 0", allocs)
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

// benchPaths runs body as sub-benchmarks w<width>/go (the block
// transpose) and, where the CPU has AVX2, w<width>/vector (the
// byte-plane conversions, which cover widths up to 32 and leave wider
// ones to the block transpose), and reports ns/elem.
func benchPaths(b *testing.B, body func(b *testing.B, width int)) {
	for _, width := range []int{1, 8, 16, 32, 64} {
		for _, vec := range []bool{false, true} {
			name := "go"
			if vec {
				name = "vector"
			}
			b.Run(fmt.Sprintf("w%d/%s", width, name), func(b *testing.B) {
				if vec && !haveVector {
					b.Skip("no vector conversions on this CPU")
				}
				defer setVector(vec)()
				b.ReportAllocs()
				body(b, width)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchLanes), "ns/elem")
			})
		}
	}
}

// benchVals returns one segment of random width-bit values.
func benchVals(width int) []uint64 {
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, benchLanes)
	for i := range vals {
		vals[i] = rng.Uint64() & widthMask(width)
	}
	return vals
}

// BenchmarkToVertical times the store into reused rows
// (ToVerticalInto, what Vector.Store runs per segment).
func BenchmarkToVertical(b *testing.B) {
	benchPaths(b, func(b *testing.B, width int) {
		vals, rows := benchVals(width), MakeRows(width, benchLanes/64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ToVerticalInto(rows, vals, width); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkToHorizontal times the inverse into a reused slice
// (ToHorizontalInto, what Vector.Load runs per segment).
func BenchmarkToHorizontal(b *testing.B) {
	benchPaths(b, func(b *testing.B, width int) {
		vals := benchVals(width)
		rows, err := ToVertical(vals, width, benchLanes)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ToHorizontalInto(vals, rows, width); err != nil {
				b.Fatal(err)
			}
		}
	})
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
