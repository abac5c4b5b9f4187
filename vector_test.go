package simdram

// Constant splats skip the transpose: storeSplat must leave DRAM, the
// DRAM statistics, the command trace and the transposition unit's
// accounting exactly as Store of n copies of the value does, on a
// System and on a sharded Cluster vector.

import (
	"math/rand"
	"testing"

	"simdram/internal/dram"
)

var splatWidths = []int{1, 8, 16, 32, 64}

func splatOf(val uint64, n int) []uint64 {
	data := make([]uint64, n)
	for i := range data {
		data[i] = val
	}
	return data
}

// splatVals returns the constants each width stores: none and all
// bits set, plus random values with bits above the width.
func splatVals(rng *rand.Rand) []uint64 {
	return []uint64{0, ^uint64(0), rng.Uint64(), rng.Uint64()}
}

func splatSystem(t *testing.T) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DRAM.Cols = 256
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// compareHostState requires two identically driven systems to hold the
// same data rows and to report the same per-subarray DRAM and
// transposition-unit statistics.
func compareHostState(t *testing.T, label string, want, got *System) {
	t.Helper()
	compareSubarrayStats(t, label, want, got)
	if w, g := want.TranspositionUnit().Stats, got.TranspositionUnit().Stats; w != g {
		t.Fatalf("%s: transposition unit Store %+v, storeSplat %+v", label, w, g)
	}
	cfg := want.Config().DRAM
	for b := 0; b < cfg.Banks; b++ {
		for s := 0; s < cfg.SubarraysPerBank; s++ {
			for r := 0; r < cfg.DataRows(); r++ {
				wr, gr := want.Module().Subarray(b, s).PeekRow(r), got.Module().Subarray(b, s).PeekRow(r)
				for i := range wr {
					if wr[i] != gr[i] {
						t.Fatalf("%s subarray (%d,%d) row %d word %d: Store %#x, storeSplat %#x", label, b, s, r, i, wr[i], gr[i])
					}
				}
			}
		}
	}
}

// requireHostAccesses requires every traced command to be a host write
// or, from the result checks, a host read.
func requireHostAccesses(t *testing.T, logs []*[]dram.Command) {
	t.Helper()
	for _, l := range logs {
		for _, c := range *l {
			if c.Kind != dram.CmdHostWrite && c.Kind != dram.CmdHostRead {
				t.Fatalf("store issued %+v, want only host accesses", c)
			}
		}
	}
}

func requireSplat(t *testing.T, label string, got []uint64, val uint64, width int) {
	t.Helper()
	want := val
	if width < 64 {
		want &= 1<<uint(width) - 1
	}
	for i, v := range got {
		if v != want {
			t.Fatalf("%s element %d: loaded %#x, want %#x", label, i, v, want)
		}
	}
}

func TestStoreSplatMatchesStoreSystem(t *testing.T) {
	const n = 5*256 + 100 // six segments, the last one partial
	rng := rand.New(rand.NewSource(11))
	ref, got := splatSystem(t), splatSystem(t)
	refLogs, gotLogs := attachTracers(ref), attachTracers(got)
	for _, width := range splatWidths {
		for _, val := range splatVals(rng) {
			rv, err := ref.AllocVector(n, width)
			if err != nil {
				t.Fatal(err)
			}
			gv, err := got.AllocVector(n, width)
			if err != nil {
				t.Fatal(err)
			}
			// Twice each: the second store hits the unit's line buffer.
			for rep := 0; rep < 2; rep++ {
				if err := rv.Store(splatOf(val, n)); err != nil {
					t.Fatal(err)
				}
				if err := gv.storeSplat(val); err != nil {
					t.Fatal(err)
				}
				compareHostState(t, "system", ref, got)
			}
			for _, v := range []*Vector{rv, gv} {
				vals, err := v.Load()
				if err != nil {
					t.Fatal(err)
				}
				requireSplat(t, "system", vals, val, width)
			}
			rv.Free()
			gv.Free()
		}
	}
	compareTraces(t, "system", refLogs, gotLogs)
	requireHostAccesses(t, gotLogs)
	if got.TranspositionUnit().Stats.BufferHits == 0 {
		t.Fatal("no line-buffer hits: the repeated stores compared nothing")
	}
	gv, err := got.AllocVector(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	gv.Free()
	if err := gv.storeSplat(1); err == nil {
		t.Fatal("storeSplat to a freed vector must fail")
	}
}

func TestStoreSplatMatchesStoreCluster(t *testing.T) {
	const n = 2*3*256 + 2*70 + 1 // three full and one partial segment per channel
	rng := rand.New(rand.NewSource(12))
	newCluster := func() *Cluster {
		cfg := DefaultClusterConfig(2)
		cfg.Channel.DRAM.Cols = 256
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	ref, got := newCluster(), newCluster()
	var refLogs, gotLogs [][]*[]dram.Command
	for ch := 0; ch < 2; ch++ {
		refLogs = append(refLogs, attachTracers(ref.Channel(ch)))
		gotLogs = append(gotLogs, attachTracers(got.Channel(ch)))
	}
	for _, width := range splatWidths {
		for _, val := range splatVals(rng) {
			rv, err := ref.AllocShardedVector(n, width)
			if err != nil {
				t.Fatal(err)
			}
			gv, err := got.AllocShardedVector(n, width)
			if err != nil {
				t.Fatal(err)
			}
			if err := rv.Store(splatOf(val, n)); err != nil {
				t.Fatal(err)
			}
			if err := gv.storeSplat(val); err != nil {
				t.Fatal(err)
			}
			for ch := 0; ch < 2; ch++ {
				compareHostState(t, "cluster channel", ref.Channel(ch), got.Channel(ch))
			}
			for _, v := range []*ShardedVector{rv, gv} {
				vals, err := v.Load()
				if err != nil {
					t.Fatal(err)
				}
				requireSplat(t, "cluster", vals, val, width)
			}
			rv.Free()
			gv.Free()
		}
	}
	for ch := 0; ch < 2; ch++ {
		compareTraces(t, "cluster channel", refLogs[ch], gotLogs[ch])
		requireHostAccesses(t, gotLogs[ch])
	}
}

// Vector store/load host cost at serve-hot geometry: 256-column rows,
// 2048 16-bit elements (eight segments).
const (
	benchVecN     = 2048
	benchVecWidth = 16
)

func benchVector(b *testing.B) (*Vector, []uint64) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.DRAM.Cols = 256
	sys, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	v, err := sys.AllocVector(benchVecN, benchVecWidth)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]uint64, benchVecN)
	for i := range data {
		data[i] = rng.Uint64() & (1<<benchVecWidth - 1)
	}
	return v, data
}

func reportPerElem(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchVecN), "ns/elem")
}

func BenchmarkVectorStore(b *testing.B) {
	v, data := benchVector(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Store(data); err != nil {
			b.Fatal(err)
		}
	}
	reportPerElem(b)
}

func BenchmarkVectorStoreSplat(b *testing.B) {
	v, _ := benchVector(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.storeSplat(0xBEEF); err != nil {
			b.Fatal(err)
		}
	}
	reportPerElem(b)
}

func BenchmarkVectorLoad(b *testing.B) {
	v, data := benchVector(b)
	if err := v.Store(data); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Load(); err != nil {
			b.Fatal(err)
		}
	}
	reportPerElem(b)
}

// TestRecycledHandleStoreIsCharged pins the transposition line buffer
// to object identity, not to the recycled 16-bit handle: a vector that
// reuses a freed vector's handle must pay for its first store in full
// instead of hitting the freed vector's buffered lines.
func TestRecycledHandleStoreIsCharged(t *testing.T) {
	sys := splatSystem(t)
	const n, width = 256, 8
	data := splatOf(7, n)
	// Spend every fresh handle but the last; freed handles are recycled
	// last-freed first once the fresh range runs out.
	for i := 1; i < int(^uint16(0)); i++ {
		v, err := sys.AllocVector(n, width)
		if err != nil {
			t.Fatal(err)
		}
		v.Free()
	}
	old, err := sys.AllocVector(n, width)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Store(data); err != nil {
		t.Fatal(err)
	}
	h := old.Handle()
	old.Free()
	v, err := sys.AllocVector(n, width)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Free()
	if v.Handle() != h {
		t.Fatalf("new vector got handle %d, want the recycled %d", v.Handle(), h)
	}
	before := sys.TranspositionUnit().Stats
	if err := v.Store(data); err != nil {
		t.Fatal(err)
	}
	got := sys.TranspositionUnit().Stats
	if hits := got.BufferHits - before.BufferHits; hits != 0 {
		t.Errorf("store to a recycled handle hit %d buffered lines of the freed vector", hits)
	}
	if lines := got.LinesTransposed - before.LinesTransposed; lines != n*width/8/64 {
		t.Errorf("store to a recycled handle transposed %d lines, want %d", lines, n*width/8/64)
	}
	// The buffer still serves the object itself.
	before = got
	if err := v.Store(data); err != nil {
		t.Fatal(err)
	}
	if hits := sys.TranspositionUnit().Stats.BufferHits - before.BufferHits; hits != n*width/8/64 {
		t.Errorf("second store to the same vector hit %d lines, want %d", hits, n*width/8/64)
	}
}
