package simdram

// Facade-level differential tests for the bind-once/run-many hot path:
// resolved command streams must be bit- AND trace-identical to the
// interpretive μProgram path on a System, on a 4-channel Cluster, and
// through the compiled-graph cache.

import (
	"math/rand"
	"strings"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/isa"
	"simdram/internal/ops"
	"simdram/internal/raceflag"
)

// attachTracers hooks OnCommand on every subarray and returns one
// command log per subarray in (bank, sub) order.
func attachTracers(sys *System) []*[]dram.Command {
	cfg := sys.Config().DRAM
	var logs []*[]dram.Command
	for b := 0; b < cfg.Banks; b++ {
		for s := 0; s < cfg.SubarraysPerBank; s++ {
			tr := new([]dram.Command)
			sys.Module().Subarray(b, s).OnCommand = func(c dram.Command) { *tr = append(*tr, c) }
			logs = append(logs, tr)
		}
	}
	return logs
}

func detachTracers(sys *System) {
	cfg := sys.Config().DRAM
	for b := 0; b < cfg.Banks; b++ {
		for s := 0; s < cfg.SubarraysPerBank; s++ {
			sys.Module().Subarray(b, s).OnCommand = nil
		}
	}
}

func compareTraces(t *testing.T, label string, interp, resolved []*[]dram.Command) {
	t.Helper()
	total := 0
	for i := range interp {
		ti, tr := *interp[i], *resolved[i]
		if len(ti) != len(tr) {
			t.Fatalf("%s subarray %d: interpretive issued %d commands, resolved %d", label, i, len(ti), len(tr))
		}
		for j := range ti {
			if ti[j] != tr[j] {
				t.Fatalf("%s subarray %d command %d: interpretive %+v, resolved %+v", label, i, j, ti[j], tr[j])
			}
		}
		total += len(ti)
	}
	if total == 0 {
		t.Fatalf("%s: tracers captured nothing — differential is vacuous", label)
	}
}

// randomHazardProgram allocates a pool of vectors on sys and emits a
// randomized instruction DAG over them: RAW chains (temps read after
// being written), WAW/WAR reuse of destinations, and independent
// streams that the batch scheduler overlaps across banks. Allocation
// order is deterministic, so two identically-seeded systems place every
// vector on the same rows and must issue identical per-subarray command
// sequences.
func randomHazardProgram(t *testing.T, rng *rand.Rand, sys *System, n, w, nTemps, nInstr int) (isa.Program, []*Vector) {
	t.Helper()
	alloc := func() *Vector {
		v, err := sys.AllocVector(n, w)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b := alloc(), alloc()
	storeRand(t, rng, a)
	storeRand(t, rng, b)
	pool := []*Vector{a, b}
	temps := make([]*Vector, nTemps)
	for i := range temps {
		temps[i] = alloc()
		pool = append(pool, temps[i])
	}
	codes := []ops.Code{ops.OpAdd, ops.OpSub, ops.OpMax, ops.OpMin}
	var prog isa.Program
	pick := func(not *Vector) *Vector {
		for {
			if v := pool[rng.Intn(len(pool))]; v != not {
				return v
			}
		}
	}
	for i := 0; i < nInstr; i++ {
		dst := temps[rng.Intn(len(temps))]
		s0 := pick(dst)
		s1 := pick(dst)
		prog = append(prog, isa.Instruction{
			Op:    isa.FromOp(codes[rng.Intn(len(codes))]),
			Dst:   dst.Handle(),
			Src:   [3]uint16{s0.Handle(), s1.Handle()},
			Size:  uint32(dst.Len()),
			Width: uint8(s0.Width()),
		})
	}
	return prog, temps
}

// TestResolvedDifferentialSystem is the satellite differential on a
// System: a randomized hazard-rich ExecBatch must be bit-identical and
// trace-identical between the interpretive and resolved-stream paths.
func TestResolvedDifferentialSystem(t *testing.T) {
	const seed, n, w = 23, 600, 16 // 600 > Cols: multi-segment vectors

	build := func(interp bool) (*System, isa.Program, []*Vector) {
		sys := testSystem(t)
		t.Cleanup(sys.Close)
		sys.SetInterpretive(interp)
		sys.SetVerifyPlans(true) // every batch in the differential must verify clean
		prog, outs := randomHazardProgram(t, rand.New(rand.NewSource(seed)), sys, n, w, 4, 16)
		return sys, prog, outs
	}
	sysI, progI, outsI := build(true)
	sysR, progR, outsR := build(false)

	logsI, logsR := attachTracers(sysI), attachTracers(sysR)
	stI, err := sysI.ExecBatch(progI)
	if err != nil {
		t.Fatal(err)
	}
	stR, err := sysR.ExecBatch(progR)
	if err != nil {
		t.Fatal(err)
	}
	detachTracers(sysI)
	detachTracers(sysR)

	if stI != stR {
		t.Errorf("batch stats diverge: interpretive %+v, resolved %+v", stI, stR)
	}
	compareTraces(t, "system", logsI, logsR)
	for i := range outsI {
		got, err := outsR[i].Load()
		if err != nil {
			t.Fatal(err)
		}
		want, err := outsI[i].Load()
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("temp %d lane %d: resolved %d, interpretive %d", i, j, got[j], want[j])
			}
		}
	}
}

// clusterHazardProgram allocates and fills the operands of a
// hazard-rich program on a cluster — RAW chains plus WAW/WAR reuse of
// t1 — and returns it with every vector it names (a, b, t1, t2, t3).
// Allocation and data are deterministic in seed, so identically built
// clusters hold identical rows.
func clusterHazardProgram(t *testing.T, c *Cluster, seed int64) (isa.Program, []*ShardedVector) {
	t.Helper()
	const n, w = 2048, 8
	rng := rand.New(rand.NewSource(seed))
	alloc := func() *ShardedVector {
		sv, err := c.AllocShardedVector(n, w)
		if err != nil {
			t.Fatal(err)
		}
		return sv
	}
	a, b := alloc(), alloc()
	storeRand(t, rng, a)
	storeRand(t, rng, b)
	t1, t2, t3 := alloc(), alloc(), alloc()
	prog := isa.Program{
		clusterBbop(ops.OpAdd, t1, a, b),
		clusterBbop(ops.OpSub, t2, a, b),
		clusterBbop(ops.OpMax, t3, t1, t2),
		clusterBbop(ops.OpAdd, t1, t3, a), // WAW/WAR on t1
	}
	return prog, []*ShardedVector{a, b, t1, t2, t3}
}

// TestResolvedDifferentialCluster repeats the differential on a
// 4-channel cluster: every channel runs interpretively on one cluster
// and via resolved streams on the other.
func TestResolvedDifferentialCluster(t *testing.T) {
	const seed, channels = 31, 4

	build := func(interp bool) (*Cluster, isa.Program, []*ShardedVector) {
		c := testCluster(t, channels)
		c.SetVerifyPlans(true) // every shard in the differential must verify clean
		for i := 0; i < c.Channels(); i++ {
			c.Channel(i).SetInterpretive(interp)
		}
		prog, vecs := clusterHazardProgram(t, c, seed)
		return c, prog, vecs[2:]
	}
	cI, progI, outsI := build(true)
	cR, progR, outsR := build(false)

	var logsI, logsR []*[]dram.Command
	for i := 0; i < channels; i++ {
		logsI = append(logsI, attachTracers(cI.Channel(i))...)
		logsR = append(logsR, attachTracers(cR.Channel(i))...)
	}
	if _, err := cI.ExecBatch(progI); err != nil {
		t.Fatal(err)
	}
	if _, err := cR.ExecBatch(progR); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < channels; i++ {
		detachTracers(cI.Channel(i))
		detachTracers(cR.Channel(i))
	}
	compareTraces(t, "cluster", logsI, logsR)
	for i := range outsI {
		got, err := outsR[i].Load()
		if err != nil {
			t.Fatal(err)
		}
		want, err := outsI[i].Load()
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("output %d lane %d: resolved %d, interpretive %d", i, j, got[j], want[j])
			}
		}
	}
}

// TestResolvedDifferentialGraph runs a randomized 30+-node compiled DAG
// on two identically-seeded systems, one interpretive, and requires
// bit-identical roots. (Trace identity is pinned by the ExecBatch
// differentials above; the graph layer adds compiler-managed
// temporaries on top of the same execution path.)
func TestResolvedDifferentialGraph(t *testing.T) {
	const seed, n, width = 41, 300, 16

	run := func(interp bool) [][]uint64 {
		sys := testGraphSystem(t)
		t.Cleanup(sys.Close)
		sys.SetInterpretive(interp)
		sys.SetVerifyPlans(true) // compiled plans must verify clean in both modes
		rng := rand.New(rand.NewSource(seed))
		leaves := make([]*Expr, 4)
		for i := range leaves {
			v, err := sys.AllocVector(n, width)
			if err != nil {
				t.Fatal(err)
			}
			storeRand(t, rng, v)
			leaves[i] = sys.Lazy(v)
		}
		roots := buildRandomDAG(rng, leaves, width, 34)
		if _, err := sys.Materialize(roots...); err != nil {
			t.Fatal(err)
		}
		out := make([][]uint64, len(roots))
		for i, r := range roots {
			vals, err := r.Result().Load()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = vals
		}
		return out
	}
	want := run(true)
	got := run(false)
	if len(got) != len(want) {
		t.Fatalf("root count diverged: resolved %d, interpretive %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("root %d element %d: resolved %d, interpretive %d", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestCompiledExecuteReuse pins the bind-once/run-many contract at the
// compiled-graph level: repeated Execute calls reuse the prepared
// program and stay bit-identical, and staleness (a freed input) is
// detected rather than silently reading recycled rows.
func TestCompiledExecuteReuse(t *testing.T) {
	sys := testGraphSystem(t)
	defer sys.Close()
	rng := rand.New(rand.NewSource(53))
	va, err := sys.AllocVector(300, 16)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := sys.AllocVector(300, 16)
	if err != nil {
		t.Fatal(err)
	}
	da := storeRand(t, rng, va)
	db := storeRand(t, rng, vb)
	e := sys.Lazy(va).Add(sys.Lazy(vb)).Max(sys.Lazy(va))
	cp, err := sys.Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Execute(); err != nil {
		t.Fatal(err)
	}
	first, err := e.Result().Load()
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		sum := (da[i] + db[i]) & 0xFFFF
		want := sum
		if da[i] > want {
			want = da[i]
		}
		if first[i] != want {
			t.Fatalf("element %d: got %d, want max(%d+%d, %d) = %d", i, first[i], da[i], db[i], da[i], want)
		}
	}
	if _, err := cp.Execute(); err != nil {
		t.Fatalf("second Execute on cached plan: %v", err)
	}
	second, err := e.Result().Load()
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("element %d changed across Execute calls: %d then %d", i, first[i], second[i])
		}
	}
	va.Free()
	if _, err := cp.Execute(); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("Execute after freeing an input must report a stale prepared program, got %v", err)
	}
}

// TestCompiledExecuteZeroAlloc gates the steady state of a compiled
// plan: a replay reuses its prepared program's per-instruction latency
// buffer and allocates nothing.
func TestCompiledExecuteZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	sys := testGraphSystem(t)
	defer sys.Close()
	rng := rand.New(rand.NewSource(71))
	va, err := sys.AllocVector(300, 16)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := sys.AllocVector(300, 16)
	if err != nil {
		t.Fatal(err)
	}
	storeRand(t, rng, va)
	storeRand(t, rng, vb)
	cp, err := sys.Compile(sys.Lazy(va).Add(sys.Lazy(vb)).Max(sys.Lazy(va)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Execute(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := cp.Execute(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Compiled.Execute made %.1f allocations per run, want 0", allocs)
	}
}

// BenchmarkResolvedCompiledExecute measures steady-state run-many
// execution of a compiled plan (prepared batch + resolved streams).
func BenchmarkResolvedCompiledExecute(b *testing.B) {
	sys := testGraphSystem(b)
	defer sys.Close()
	rng := rand.New(rand.NewSource(67))
	va, err := sys.AllocVector(300, 16)
	if err != nil {
		b.Fatal(err)
	}
	vb, err := sys.AllocVector(300, 16)
	if err != nil {
		b.Fatal(err)
	}
	storeRand(b, rng, va)
	storeRand(b, rng, vb)
	e := sys.Lazy(va).Add(sys.Lazy(vb)).Max(sys.Lazy(va))
	cp, err := sys.Compile(e)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cp.Execute(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}
