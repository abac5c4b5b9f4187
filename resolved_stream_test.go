package simdram

// Facade-level differential tests for the control unit's one run path
// (ctrl.Prepare + ctrl.Run, replaying cached resolved command streams):
// every batch must be bit-, stats- and trace-identical to a reference
// that walks the program in order and interprets each instruction's
// μProgram with uprog.Run, on a System and on a 4-channel Cluster; a
// compiled graph's roots must match the operations' golden models.

import (
	"math/rand"
	"strings"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/isa"
	"simdram/internal/ops"
	"simdram/internal/raceflag"
	"simdram/internal/testoracle"
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

// compareTraces requires identical per-subarray command logs and
// returns the number of commands they hold.
func compareTraces(t *testing.T, label string, want, got []*[]dram.Command) int {
	t.Helper()
	total := 0
	for i := range want {
		tw, tg := *want[i], *got[i]
		if len(tw) != len(tg) {
			t.Fatalf("%s subarray %d: reference issued %d commands, got %d", label, i, len(tw), len(tg))
		}
		for j := range tw {
			if tw[j] != tg[j] {
				t.Fatalf("%s subarray %d command %d: reference %+v, got %+v", label, i, j, tw[j], tg[j])
			}
		}
		total += len(tw)
	}
	if total == 0 {
		t.Fatalf("%s: tracers captured nothing — differential is vacuous", label)
	}
	return total
}

// compareSubarrayStats requires every subarray of two identically
// built systems to report identical DRAM statistics.
func compareSubarrayStats(t *testing.T, label string, want, got *System) {
	t.Helper()
	cfg := want.Config().DRAM
	for b := 0; b < cfg.Banks; b++ {
		for s := 0; s < cfg.SubarraysPerBank; s++ {
			if w, g := want.Module().Subarray(b, s).Stats, got.Module().Subarray(b, s).Stats; w != g {
				t.Fatalf("%s subarray (%d,%d): reference stats %+v, got %+v", label, b, s, w, g)
			}
		}
	}
}

// oracleRun is the reference executor the batch engine is checked
// against: it walks prog in program order, resolves each instruction
// through s.resolve and s.prepareOp, and interprets the μProgram with
// uprog.Run on each segment's subarray — no scheduler, no resolved
// streams, no stream cache.
func oracleRun(t *testing.T, sys *System, prog isa.Program) {
	t.Helper()
	for i, in := range prog {
		if in.Op == isa.OpTrspInit {
			continue
		}
		var buf [3]*Vector
		d, dst, srcs, err := sys.resolve(in, &buf)
		if err != nil {
			t.Fatalf("oracle instruction %d: %v", i, err)
		}
		p, segs, err := sys.prepareOp(d, dst, srcs, &segBufs{})
		if err != nil {
			t.Fatalf("oracle instruction %d: %v", i, err)
		}
		for _, seg := range segs {
			if err := testoracle.Run(p, sys.Module().Subarray(seg.Bank, seg.Sub), seg.Binding); err != nil {
				t.Fatalf("oracle instruction %d bank %d subarray %d: %v", i, seg.Bank, seg.Sub, err)
			}
		}
	}
}

// loadAll loads every vector, fatally on error.
func loadAll[V interface{ Load() ([]uint64, error) }](t *testing.T, vecs []V) [][]uint64 {
	t.Helper()
	out := make([][]uint64, len(vecs))
	for i, v := range vecs {
		vals, err := v.Load()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = vals
	}
	return out
}

// compareOutputs requires identical loaded results.
func compareOutputs(t *testing.T, want, got [][]uint64) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("output %d lane %d: got %d, reference %d", i, j, got[i][j], want[i][j])
			}
		}
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

// TestResolvedDifferentialSystem runs a randomized hazard-rich program
// through ExecBatch and through the in-order oracle on an identically
// seeded twin. The batch engine serializes same-subarray jobs in
// program order, so per-subarray command traces, per-subarray DRAM
// stats and results must all match exactly, and the batch's energy and
// command count must equal what the oracle issued.
func TestResolvedDifferentialSystem(t *testing.T) {
	const seed, n, w = 23, 600, 16 // 600 > Cols: multi-segment vectors

	build := func() (*System, isa.Program, []*Vector) {
		sys := testSystem(t)
		t.Cleanup(sys.Close)
		prog, outs := randomHazardProgram(t, rand.New(rand.NewSource(seed)), sys, n, w, 4, 16)
		return sys, prog, outs
	}
	sysO, progO, outsO := build()
	sysB, progB, outsB := build()

	logsO, logsB := attachTracers(sysO), attachTracers(sysB)
	before := sysO.Module().Stats()
	oracleRun(t, sysO, progO)
	oracleEnergy := sysO.Module().Stats().Sub(before).EnergyPJ
	st, err := sysB.ExecBatch(progB)
	if err != nil {
		t.Fatal(err)
	}
	detachTracers(sysO)
	detachTracers(sysB)

	cmds := compareTraces(t, "system", logsO, logsB)
	compareSubarrayStats(t, "system", sysO, sysB)
	if st.Instructions != int64(len(progB)) || st.Commands != int64(cmds) || st.EnergyPJ != oracleEnergy {
		t.Errorf("batch stats %+v: want %d instructions, %d commands, %v pJ", st, len(progB), cmds, oracleEnergy)
	}
	compareOutputs(t, loadAll(t, outsO), loadAll(t, outsB))
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
// 4-channel cluster: one cluster runs ExecBatch, its twin runs each
// channel's shardProgram share through the in-order oracle.
func TestResolvedDifferentialCluster(t *testing.T) {
	const seed, channels = 31, 4

	build := func() (*Cluster, isa.Program, []*ShardedVector) {
		c := testCluster(t, channels)
		prog, vecs := clusterHazardProgram(t, c, seed)
		return c, prog, vecs[2:]
	}
	cO, progO, outsO := build()
	cB, progB, outsB := build()

	subProgs, ran, err := cO.shardProgram(progO)
	if err != nil {
		t.Fatal(err)
	}
	logsO := traceCluster(cO, func() {
		for _, ch := range ran {
			oracleRun(t, cO.Channel(ch), subProgs[ch])
		}
	})
	logsB := traceCluster(cB, func() {
		if _, err := cB.ExecBatch(progB); err != nil {
			t.Fatal(err)
		}
	})
	compareTraces(t, "cluster", logsO, logsB)
	for ch := 0; ch < channels; ch++ {
		compareSubarrayStats(t, "cluster", cO.Channel(ch), cB.Channel(ch))
	}
	compareOutputs(t, loadAll(t, outsO), loadAll(t, outsB))
}

// goldenVal is an expression's per-lane reference value and width.
type goldenVal struct {
	vals  []uint64
	width int
}

// goldenExpr evaluates e lane by lane through its operations' golden
// models (ops.Def.Golden), memoizing shared subtrees. Leaves read the
// host copy of the data stored in them.
func goldenExpr(t *testing.T, e *Expr, leafData map[*Vector][]uint64, n int, memo map[*Expr]goldenVal) goldenVal {
	t.Helper()
	if g, ok := memo[e]; ok {
		return g
	}
	var g goldenVal
	switch e.kind {
	case exprLeaf:
		g = goldenVal{leafData[e.leaf], e.leaf.Width()}
	case exprConst:
		g = goldenVal{make([]uint64, n), e.width}
		for i := range g.vals {
			g.vals[i] = e.val & (1<<uint(e.width) - 1)
		}
	case exprOp:
		d, err := ops.ByName(e.opName)
		if err != nil {
			t.Fatal(err)
		}
		args := make([]goldenVal, len(e.args))
		for k, a := range e.args {
			args[k] = goldenExpr(t, a, leafData, n, memo)
		}
		w := args[0].width
		g = goldenVal{make([]uint64, n), d.DstWidth(w)}
		lane := make([]uint64, len(args))
		for i := range g.vals {
			for k := range args {
				lane[k] = args[k].vals[i]
			}
			g.vals[i] = d.Golden(lane, w)
		}
	default:
		t.Fatalf("goldenExpr: unsupported expression kind %d", e.kind)
	}
	memo[e] = g
	return g
}

// TestResolvedDifferentialGraph materializes a randomized 30+-node
// compiled DAG and requires every root to equal a per-lane golden
// evaluation of its expression tree. (Trace identity is pinned by the
// ExecBatch differentials above; the graph layer adds compiler-managed
// temporaries on top of the same execution path.)
func TestResolvedDifferentialGraph(t *testing.T) {
	const seed, n, width = 41, 300, 16

	sys := testGraphSystem(t)
	t.Cleanup(sys.Close)
	rng := rand.New(rand.NewSource(seed))
	leafData := map[*Vector][]uint64{}
	leaves := make([]*Expr, 4)
	for i := range leaves {
		v, err := sys.AllocVector(n, width)
		if err != nil {
			t.Fatal(err)
		}
		leafData[v] = storeRand(t, rng, v)
		leaves[i] = sys.Lazy(v)
	}
	roots := buildRandomDAG(rng, leaves, width, 34)
	if _, err := sys.Materialize(roots...); err != nil {
		t.Fatal(err)
	}
	memo := map[*Expr]goldenVal{}
	for i, r := range roots {
		want := goldenExpr(t, r, leafData, n, memo).vals
		got, err := r.Result().Load()
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("root %d (%s) element %d: got %d, golden %d", i, r.opName, j, got[j], want[j])
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
