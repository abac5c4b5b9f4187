package simdram

import (
	"context"
	"math/rand"
	"testing"
)

// cacheShape builds the reference request shape over three 8-bit
// leaves: a shared prefix (CSE fodder), a folding constant subtree,
// and two roots. Structurally identical calls must share a plan.
func cacheShape(a, b, c *Expr) []*Expr {
	base := a.Add(b).Max(c)
	seven := Scalar(3, 8).Add(Scalar(4, 8))
	r1 := base.Sub(c).Add(seven)
	r2 := base.Min(a).Add(b)
	return []*Expr{r1, r2}
}

// sysLeaves allocates and fills three aligned 8-bit vectors.
func sysLeaves(t *testing.T, sys *System, rng *rand.Rand, n int) [3]*Vector {
	t.Helper()
	var vs [3]*Vector
	for i := range vs {
		v, err := sys.AllocVector(n, 8)
		if err != nil {
			t.Fatal(err)
		}
		storeRand(t, rng, v)
		vs[i] = v
	}
	return vs
}

// TestSystemPlanCacheHitBitIdentical is the cache differential on one
// System: the same shape over fresh leaf vectors must hit the cache,
// and the hot results must be bit-identical to a cold compile of the
// identical data on a fresh System.
func TestSystemPlanCacheHitBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 96

	sys := testGraphSystem(t)
	defer sys.Close()

	// Cold compile: primes the cache.
	warm := sysLeaves(t, sys, rng, n)
	exprs := cacheShape(sys.Lazy(warm[0]), sys.Lazy(warm[1]), sys.Lazy(warm[2]))
	if _, err := sys.Materialize(exprs...); err != nil {
		t.Fatal(err)
	}
	for _, e := range exprs {
		e.Result().Free()
	}
	if st := sys.PlanCacheStats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after cold compile: %+v, want 1 miss", st)
	}

	// Same shape, different leaf vectors and payloads: must hit.
	hot := sysLeaves(t, sys, rng, n)
	var data [3][]uint64
	for i, v := range hot {
		got, err := v.Load()
		if err != nil {
			t.Fatal(err)
		}
		data[i] = got
	}
	exprs2 := cacheShape(sys.Lazy(hot[0]), sys.Lazy(hot[1]), sys.Lazy(hot[2]))
	cp, err := sys.Compile(exprs2...)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Stats().CacheHit {
		t.Fatalf("same shape over different leaves missed the cache: %+v", sys.PlanCacheStats())
	}
	if _, err := cp.Execute(); err != nil {
		t.Fatal(err)
	}
	var hotOut [][]uint64
	for _, e := range exprs2 {
		vals, err := e.Result().Load()
		if err != nil {
			t.Fatal(err)
		}
		hotOut = append(hotOut, vals)
	}
	cp.Free()

	// Cold reference: a fresh System (empty cache), identical data.
	ref := testGraphSystem(t)
	defer ref.Close()
	refLeaves := sysLeaves(t, ref, rand.New(rand.NewSource(99)), n)
	for i, v := range refLeaves {
		if err := v.Store(data[i]); err != nil {
			t.Fatal(err)
		}
	}
	exprs3 := cacheShape(ref.Lazy(refLeaves[0]), ref.Lazy(refLeaves[1]), ref.Lazy(refLeaves[2]))
	rp, err := ref.Compile(exprs3...)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Stats().CacheHit {
		t.Fatal("fresh System's first compile cannot be a cache hit")
	}
	if _, err := rp.Execute(); err != nil {
		t.Fatal(err)
	}
	for r, e := range exprs3 {
		want, err := e.Result().Load()
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if hotOut[r][j] != want[j] {
				t.Fatalf("root %d element %d: cached-plan %d != cold-compile %d", r, j, hotOut[r][j], want[j])
			}
		}
	}
}

// TestPlanCacheKeyMisses pins the miss conditions: same topology with
// different widths or different opcodes must not share a plan.
func TestPlanCacheKeyMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sys := testGraphSystem(t)
	defer sys.Close()
	const n = 64

	alloc := func(width int) *Vector {
		v, err := sys.AllocVector(n, width)
		if err != nil {
			t.Fatal(err)
		}
		storeRand(t, rng, v)
		return v
	}

	// Shape 1: (a+b) at width 8.
	a8, b8 := alloc(8), alloc(8)
	cp, err := sys.Compile(sys.Lazy(a8).Add(sys.Lazy(b8)))
	if err != nil {
		t.Fatal(err)
	}
	cp.Free()
	if cp.Stats().CacheHit {
		t.Fatal("first shape hit an empty cache")
	}

	// Same topology at width 16: must miss.
	a16, b16 := alloc(16), alloc(16)
	cp, err = sys.Compile(sys.Lazy(a16).Add(sys.Lazy(b16)))
	if err != nil {
		t.Fatal(err)
	}
	cp.Free()
	if cp.Stats().CacheHit {
		t.Fatal("same topology at a different width hit the 8-bit plan")
	}

	// Same topology and width, different opcode: must miss.
	cp, err = sys.Compile(sys.Lazy(a8).Sub(sys.Lazy(b8)))
	if err != nil {
		t.Fatal(err)
	}
	cp.Free()
	if cp.Stats().CacheHit {
		t.Fatal("different opcode hit the addition plan")
	}

	// Original shape over different leaf vectors: must hit.
	c8, d8 := alloc(8), alloc(8)
	cp, err = sys.Compile(sys.Lazy(c8).Add(sys.Lazy(d8)))
	if err != nil {
		t.Fatal(err)
	}
	cp.Free()
	if !cp.Stats().CacheHit {
		t.Fatal("same shape over different leaf vectors missed")
	}
	if st := sys.PlanCacheStats(); st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("cache stats %+v, want 1 hit / 3 misses", st)
	}
}

// TestClusterPlanCacheHitBitIdentical is the cache differential on a
// 4-channel cluster: hot (cached-plan) results must match a cold
// compile of identical data on a fresh cluster, bit for bit.
func TestClusterPlanCacheHitBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 100

	leaves := func(cl *Cluster) ([3]*ShardedVector, [3][]uint64) {
		var vs [3]*ShardedVector
		var data [3][]uint64
		for i := range vs {
			v, err := cl.AllocShardedVector(n, 8)
			if err != nil {
				t.Fatal(err)
			}
			data[i] = storeRand(t, rng, v)
			vs[i] = v
		}
		return vs, data
	}

	cl := testGraphCluster(t, 4)
	defer cl.Close()

	// Cold compile primes the cache; second compile over fresh
	// sharded vectors must hit.
	warm, _ := leaves(cl)
	exprs := cacheShape(cl.Lazy(warm[0]), cl.Lazy(warm[1]), cl.Lazy(warm[2]))
	if _, err := cl.Materialize(exprs...); err != nil {
		t.Fatal(err)
	}
	for _, e := range exprs {
		e.ShardedResult().Free()
	}

	hot, data := leaves(cl)
	exprs2 := cacheShape(cl.Lazy(hot[0]), cl.Lazy(hot[1]), cl.Lazy(hot[2]))
	cp, err := cl.Compile(exprs2...)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Stats().CacheHit {
		t.Fatalf("same shape over different sharded leaves missed: %+v", cl.PlanCacheStats())
	}
	if _, err := cp.Execute(); err != nil {
		t.Fatal(err)
	}
	var hotOut [][]uint64
	for _, e := range exprs2 {
		vals, err := e.ShardedResult().Load()
		if err != nil {
			t.Fatal(err)
		}
		hotOut = append(hotOut, vals)
	}
	cp.Free()

	// Cold reference cluster with identical payloads.
	ref := testGraphCluster(t, 4)
	defer ref.Close()
	refLeaves, _ := leaves(ref)
	for i, v := range refLeaves {
		if err := v.Store(data[i]); err != nil {
			t.Fatal(err)
		}
	}
	exprs3 := cacheShape(ref.Lazy(refLeaves[0]), ref.Lazy(refLeaves[1]), ref.Lazy(refLeaves[2]))
	rp, err := ref.Compile(exprs3...)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Stats().CacheHit {
		t.Fatal("fresh Cluster's first compile cannot be a cache hit")
	}
	if _, err := rp.Execute(); err != nil {
		t.Fatal(err)
	}
	for r, e := range exprs3 {
		want, err := e.ShardedResult().Load()
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if hotOut[r][j] != want[j] {
				t.Fatalf("root %d element %d: cached-plan %d != cold-compile %d", r, j, hotOut[r][j], want[j])
			}
		}
	}
}

// TestLowerFailureFreesRootDataLeaves pins the failure-path cleanup:
// when lowering dies after a root Input data leaf was already
// allocated and stored (here: a later, bigger data leaf exhausts the
// subarray's rows), the root leaf's rows must be released — a
// long-lived serving channel must not leak rows on failed jobs.
func TestLowerFailureFreesRootDataLeaves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DRAM.Cols = 64
	cfg.DRAM.Banks = 1
	cfg.DRAM.SubarraysPerBank = 1
	// Capacity for one 64-bit vector but not two.
	cfg.DRAM.RowsPerSubarray = cfg.DRAM.ComputeRows() + 100
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	data := make([]uint64, 32)
	rootLeaf := Input(data, 64)         // allocated first, 64 rows
	other := Input(data, 64).BitCount() // second 64-row leaf cannot fit
	before := sys.usedRows()
	if _, err := sys.Materialize(rootLeaf, other); err == nil {
		t.Fatal("materialize must fail: two 64-bit vectors cannot fit in 100 data rows")
	}
	if after := sys.usedRows(); after != before {
		t.Fatalf("failed lowering leaked %d rows (before %d, after %d)", after-before, before, after)
	}
	// The rows are actually reusable: a 64-row job (one bare data-leaf
	// root) still fits where the failed job's leaf would otherwise
	// have leaked 64 of the 100 rows.
	ok := Input(data, 64)
	if _, err := sys.Materialize(ok); err != nil {
		t.Fatalf("rows not actually released: %v", err)
	}
	ok.Result().Free()
}

// TestInputLeavesOnSystemAndCluster covers the data-leaf path outside
// the Server: Materialize allocates, stores, and frees Input payloads
// itself, and a root that IS a data leaf keeps its storage.
func TestInputLeavesOnSystemAndCluster(t *testing.T) {
	data := make([]uint64, 80)
	for i := range data {
		data[i] = uint64(i % 251)
	}

	sys := testGraphSystem(t)
	defer sys.Close()
	e := Input(data, 8).Add(Scalar(5, 8))
	root := Input(data, 8) // bare data-leaf root
	if _, err := sys.Materialize(e, root); err != nil {
		t.Fatal(err)
	}
	got, err := e.Result().Load()
	if err != nil {
		t.Fatal(err)
	}
	rootVals, err := root.Result().Load()
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if want := (data[i] + 5) & 0xFF; got[i] != want {
			t.Fatalf("element %d: got %d, want %d", i, got[i], want)
		}
		if rootVals[i] != data[i] {
			t.Fatalf("root data leaf element %d: got %d, want %d", i, rootVals[i], data[i])
		}
	}
	e.Result().Free()
	root.Result().Free()

	cl := testGraphCluster(t, 3)
	defer cl.Close()
	ce := Input(data, 8).Add(Scalar(5, 8))
	if _, err := cl.Materialize(ce); err != nil {
		t.Fatal(err)
	}
	cgot, err := ce.ShardedResult().Load()
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if want := (data[i] + 5) & 0xFF; cgot[i] != want {
			t.Fatalf("cluster element %d: got %d, want %d", i, cgot[i], want)
		}
	}
	ce.ShardedResult().Free()
}

// TestServedPlanCacheRepeats pins deterministic eviction: one trace of
// jobs over 1024 random DAG shapes, some drawn far more often than
// others, submitted one job at a time to a 2-channel Server twice,
// leaves the plan cache with identical counters both times. The
// cost-LRU policy weighs an entry by its plan, never by a clock, so
// which shapes survive depends on the trace alone.
func TestServedPlanCacheRepeats(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	leaves := make([]*Expr, 4)
	for i := range leaves {
		leaves[i] = Input(randData(rng, 128, 8), 8)
	}
	dags := make([][]*Expr, 1024)
	for i := range dags {
		dags[i] = buildRandomDAG(rng, leaves, 8, 12)
	}
	trace := make([]int, 3072)
	for i := range trace {
		if rng.Intn(2) == 0 {
			trace[i] = rng.Intn(96) // a hot set that fits the cache
		} else {
			trace[i] = rng.Intn(len(dags))
		}
	}
	run := func() PlanCacheStats {
		srv := testServer(t, 2, nil)
		for _, d := range trace {
			fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "trace"}, dags[d]...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fut.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		return srv.Stats().Cache
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("one trace gave different plan-cache stats:\n%+v\n%+v", first, second)
	}
	if first.Hits == 0 || first.Evicted == 0 {
		t.Fatalf("stats = %+v, want both hits and evictions (the trace must exercise the policy)", first)
	}
	t.Logf("%+v", first)
}
