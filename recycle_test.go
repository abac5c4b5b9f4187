package simdram

// Tests for the recycling of one-shot prepared programs: owners that
// run a program once (ExecBatch, Run, a served job the channel memo
// does not keep) hand its control-unit storage back for reuse, while
// programs that may run again (a Compiled, a memoized served program,
// the Cluster's ExecBatch memo) keep theirs. Every result is checked
// against the CPU baseline.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"simdram/internal/baseline/cpu"
	"simdram/internal/isa"
	"simdram/internal/ops"
	"simdram/internal/raceflag"
)

// smallSystem is a System on the test servers' channel geometry.
func smallSystem(t *testing.T) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DRAM.Cols, cfg.DRAM.Banks, cfg.DRAM.SubarraysPerBank = 128, 2, 2
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// execCaller is one ExecBatch caller's hazard chain over its own
// vectors, accumulating into acc from run to run, with the CPU
// baseline's model of every vector.
type execCaller struct {
	prog isa.Program
	vecs [6]*Vector // a, b, acc, t1, t2, t3
	want [6][]uint64
}

func newExecCaller(t *testing.T, sys *System, n int) *execCaller {
	t.Helper()
	c := &execCaller{}
	for i := range c.vecs {
		v, err := sys.AllocVector(n, 8)
		if err != nil {
			t.Fatal(err)
		}
		c.vecs[i] = v
	}
	in := func(code ops.Code, dst, x, y int) isa.Instruction {
		return isa.Instruction{Op: isa.FromOp(code), Dst: c.vecs[dst].handle,
			Src: [3]uint16{c.vecs[x].handle, c.vecs[y].handle}, Size: uint32(n), Width: 8}
	}
	// t1 = acc + a; t2 = t1 - b; t3 = max(t2, acc); acc = t3 + t2.
	c.prog = isa.Program{in(ops.OpAdd, 3, 2, 0), in(ops.OpSub, 4, 3, 1), in(ops.OpMax, 5, 4, 2), in(ops.OpAdd, 2, 5, 4)}
	return c
}

// store fills a, b and acc with fresh random data. It mutates the
// System, so it must not overlap another goroutine's ExecBatch.
func (c *execCaller) store(rng *rand.Rand) error {
	for i := range 3 {
		c.want[i] = randData(rng, c.vecs[i].n, 8)
		if err := c.vecs[i].Store(c.want[i]); err != nil {
			return err
		}
	}
	return nil
}

// exec runs the chain once and advances the CPU model.
func (c *execCaller) exec() error {
	if _, err := c.vecs[0].sys.ExecBatch(c.prog); err != nil {
		return err
	}
	op := func(code ops.Code, x, y []uint64) []uint64 {
		d, _ := ops.ByCode(code)
		return cpu.Run(d, 8, [][]uint64{x, y})
	}
	w := &c.want
	w[3] = op(ops.OpAdd, w[2], w[0])
	w[4] = op(ops.OpSub, w[3], w[1])
	w[5] = op(ops.OpMax, w[4], w[2])
	w[2] = op(ops.OpAdd, w[5], w[4])
	return nil
}

// check loads every vector and compares it with the CPU model.
func (c *execCaller) check() error {
	for i, v := range c.vecs {
		got, err := v.Load()
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, c.want[i]) {
			return errorf("vector %d differs from the CPU baseline", i)
		}
	}
	return nil
}

// run stores fresh operands, executes the chain once and checks it.
func (c *execCaller) run(rng *rand.Rand) error {
	if err := c.store(rng); err != nil {
		return err
	}
	if err := c.exec(); err != nil {
		return err
	}
	return c.check()
}

// serveRandom serves one random 8-bit DAG over Input leaves and checks
// every root against the CPU baseline.
func serveRandom(t *testing.T, srv *Server, rng *rand.Rand, nOps int) error {
	leaves := []*Expr{Input(randData(rng, memoN, 8), 8), Input(randData(rng, memoN, 8), 8), Input(randData(rng, memoN, 8), 8)}
	roots := buildRandomDAG(rng, leaves, 8, nOps)
	fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "recycle"}, roots...)
	if err != nil {
		return err
	}
	res, err := fut.Wait()
	if err != nil {
		return err
	}
	for i, e := range roots {
		if want, _ := cpuEval(t, e, memoN); !reflect.DeepEqual(res.Values[i], want) {
			return errorf("served root %d differs from the CPU baseline", i)
		}
	}
	return nil
}

// TestRecycledProgramsDifferential runs one-shot programs concurrently
// through every recycling owner — two goroutines calling ExecBatch on
// one System, and a 2-channel server serving random DAGs — so released
// storage is constantly taken up by other goroutines' programs. Every
// result must be bit-identical to the CPU baseline.
func TestRecycledProgramsDifferential(t *testing.T) {
	sys := smallSystem(t)
	srv := testServer(t, 2, nil)
	const rounds = 40
	rng := rand.New(rand.NewSource(70))
	callers := []*execCaller{newExecCaller(t, sys, 200), newExecCaller(t, sys, 200)}
	for _, c := range callers {
		if err := c.store(rng); err != nil {
			t.Fatal(err)
		}
	}
	// Each run folds into acc, so a run that computed wrong leaves
	// wrong values for the final check.
	errs := make([]error, len(callers)+2)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(71 + g)))
			for range rounds {
				var err error
				if g < len(callers) {
					err = callers[g].exec()
				} else {
					err = serveRandom(t, srv, rng, 24)
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	for i, c := range callers {
		if err := c.check(); err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
}

// TestKeptProgramsSurviveRecycling holds one program of every keeping
// owner — a Compiled, a channel's memoized served program and the
// Cluster's ExecBatch memo — while thousands of one-shot programs are
// prepared, run and released beside them. Each kept program must then
// replay its own prepared form and still match the CPU baseline.
func TestKeptProgramsSurviveRecycling(t *testing.T) {
	rng := rand.New(rand.NewSource(23))

	// A Compiled over Lazy leaves.
	sys := smallSystem(t)
	leaves := make([]*Vector, 3)
	exprs := make([]*Expr, 3)
	for i := range leaves {
		v, err := sys.AllocVector(memoN, 8)
		if err != nil {
			t.Fatal(err)
		}
		leaves[i], exprs[i] = v, sys.Lazy(v)
	}
	roots := []*Expr{exprs[0].Add(exprs[1]).Max(exprs[2]).Sub(Scalar(9, 8)), exprs[0].Greater(exprs[2]).IfElse(exprs[1], exprs[2])}
	cp, err := sys.Compile(roots...)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Free()
	checkCompiled := func() {
		t.Helper()
		data := make([][]uint64, len(leaves))
		for i, v := range leaves {
			data[i] = randData(rng, memoN, 8)
			if err := v.Store(data[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cp.Execute(); err != nil {
			t.Fatal(err)
		}
		in := []*Expr{Input(data[0], 8), Input(data[1], 8), Input(data[2], 8)}
		for i, want := range []*Expr{in[0].Add(in[1]).Max(in[2]).Sub(Scalar(9, 8)), in[0].Greater(in[2]).IfElse(in[1], in[2])} {
			w, _ := cpuEval(t, want, memoN)
			if got, err := roots[i].Result().Load(); err != nil || !reflect.DeepEqual(got, w) {
				t.Fatalf("compiled root %d differs from the CPU baseline (%v)", i, err)
			}
		}
	}
	checkCompiled()
	compiledPP := cp.pp

	// A memoized served program: a shape's third job records it.
	srv := memoServer(t, nil)
	for range 3 {
		memoJob(t, srv, memoShape(rng))
	}
	_, entry := onlyEntry(t, srv, 0)
	if entry.pp == nil {
		t.Fatal("the served shape has no memoized program")
	}
	servedPP := entry.pp

	// The Cluster's ExecBatch memo.
	cl := testCluster(t, 2)
	cvecs, err := cl.AllocShardedGroup(memoN, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cprog := isa.Program{{Op: isa.FromOp(ops.OpAdd), Dst: cvecs[2].Handle(), Src: [3]uint16{cvecs[0].Handle(), cvecs[1].Handle()}, Size: memoN, Width: 8}}
	checkCluster := func() {
		t.Helper()
		a, b := randData(rng, memoN, 8), randData(rng, memoN, 8)
		if err := cvecs[0].Store(a); err != nil {
			t.Fatal(err)
		}
		if err := cvecs[1].Store(b); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.ExecBatch(cprog); err != nil {
			t.Fatal(err)
		}
		d, _ := ops.ByCode(ops.OpAdd)
		if got, err := cvecs[2].Load(); err != nil || !reflect.DeepEqual(got, cpu.Run(d, 8, [][]uint64{a, b})) {
			t.Fatalf("cluster result differs from the CPU baseline (%v)", err)
		}
	}
	checkCluster()
	clusterSP := cl.memo.sp

	// Thousands of one-shot programs: ExecBatch chains and single
	// operations on the Compiled's System, and misses served by another
	// server (on the memo's server they could evict its plan).
	misses := testServer(t, 1, nil)
	caller := newExecCaller(t, sys, 200)
	dst, err := sys.AllocVector(200, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if err := caller.run(rng); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run("min", dst, caller.vecs[0], caller.vecs[1]); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if err := serveRandom(t, misses, rng, 16); err != nil {
				t.Fatal(err)
			}
		}
	}

	checkCompiled()
	if cp.pp != compiledPP {
		t.Error("the Compiled prepared its program again")
	}
	if _, verified := memoJob(t, srv, memoShape(rng)); verified != 0 {
		t.Error("the served shape prepared and verified again instead of replaying its memoized program")
	}
	if _, e := onlyEntry(t, srv, 0); e.pp != servedPP {
		t.Error("the served shape's memoized program was replaced")
	}
	checkCluster()
	if cl.memo.sp != clusterSP {
		t.Error("the Cluster prepared its memoized program again")
	}
}

// missJobs returns a job that serves, on a one-channel server, the
// next of a fixed set of 32-op 8-bit random DAGs over 256-element Input
// leaves, having served each once. The server's plan cache is off, so
// every job compiles, prepares, verifies exactly one plan and releases
// in full.
func missJobs(t *testing.T) func() {
	t.Helper()
	cfg := DefaultServerConfig(1)
	cfg.Channel.DRAM.Cols = 256
	cfg.PlanCacheSize = -1
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	rng := rand.New(rand.NewSource(3))
	leaves := make([]*Expr, 4)
	for i := range leaves {
		leaves[i] = Input(randData(rng, 256, 8), 8)
	}
	dags := make([][]*Expr, missShapes)
	for i := range dags {
		dags[i] = buildRandomDAG(rng, leaves, 8, 32)
	}
	i := 0
	serve := func() {
		verified := srv.VerifiedPlans()
		fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "budget"}, dags[i%missShapes]...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		if n := srv.VerifiedPlans() - verified; n != 1 {
			t.Fatalf("job %d verified %d plans, want 1", i, n)
		}
		i++
	}
	for range missShapes {
		serve()
	}
	return serve
}

// missShapes is how many DAGs missJobs cycles through.
const missShapes = 64

// TestServerMissAllocBudget gates the served miss path's allocations
// (see missJobs): a job allocates its scheduler request and future,
// its results and its plan (the plan cache is off, so every job builds
// one); every other per-job table is recycled.
func TestServerMissAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector allocates; gate runs in the non-race CI job")
	}
	serve := missJobs(t)
	// 21 measured (Go 1.24, x86-64) plus 10%.
	const budget = 23
	allocs := testing.AllocsPerRun(missShapes, serve)
	if allocs > budget {
		t.Fatalf("a served miss allocated %.0f times, budget %d", allocs, budget)
	}
	t.Logf("a served miss allocated %.0f times, budget %d", allocs, budget)
}

// TestServerMissByteAllocBudget gates the bytes a served miss
// allocates (see missJobs), from the runtime's cumulative allocation
// count over many jobs: mostly the job's results, which the caller
// keeps, and its plan.
func TestServerMissByteAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector allocates; gate runs in the non-race CI job")
	}
	serve := missJobs(t)
	const jobs = 4 * missShapes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range jobs {
		serve()
	}
	runtime.ReadMemStats(&after)
	perJob := float64(after.TotalAlloc-before.TotalAlloc) / jobs
	// At most 40.6 KB measured over repeated runs (Go 1.24, x86-64),
	// 29 KB of it results, plus 10%.
	const budget = 44_600
	if perJob > budget {
		t.Fatalf("a served miss allocated %.0f bytes, budget %d", perJob, budget)
	}
	t.Logf("a served miss allocated %.0f bytes, budget %d", perJob, budget)
}

// TestRecyclingLeavesMemoEntryIntact interleaves, on a one-channel
// server, replays of a memo-recorded hot shape with served misses and
// with direct ExecBatch calls on another System, so every recycled
// table — environments, bindings, slabs, prepared programs, prepare
// and schedule scratch — is taken up again and again beside the
// entry's kept storage. Every result must match the CPU baseline, the
// entry must keep its prepared program, tables and rows untouched, and
// a program naming a freed handle must still fail as an unknown
// object.
func TestRecyclingLeavesMemoEntryIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	srv := memoServer(t, nil)
	hot := func() int64 {
		t.Helper()
		_, verified := memoJob(t, srv, memoShape(rng))
		return verified
	}
	for range 3 {
		hot()
	}
	key, entry := onlyEntry(t, srv, 0)
	if entry.pp == nil {
		t.Fatal("the hot shape has no memoized program")
	}
	pp, prep := entry.pp, entry.pp.prep
	binds := slices.Clone(pp.binds)
	jobOf, scratch := slices.Clone(pp.jobOf), slices.Clone(pp.scratch)
	type rows struct {
		handle uint16
		width  int
		segs   []segment
	}
	vecs := slices.Clone(entry.vecs)
	vecRows := make([]rows, len(vecs))
	for i, v := range vecs {
		vecRows[i] = rows{v.handle, v.width, slices.Clone(v.segs)}
	}
	intact := func(round int) {
		t.Helper()
		k, e := onlyEntry(t, srv, 0)
		if k != key || e != entry || e.pp != pp || pp.prep != prep {
			t.Fatalf("round %d: the hot shape's memo entry or its prepared program was replaced", round)
		}
		if !slices.Equal(pp.binds, binds) || !slices.Equal(pp.jobOf, jobOf) || !slices.Equal(pp.scratch, scratch) {
			t.Fatalf("round %d: the memoized program's tables changed", round)
		}
		if !slices.Equal(e.vecs, vecs) {
			t.Fatalf("round %d: the memo entry's objects changed", round)
		}
		for i, v := range vecs {
			if v.freed || v.handle != vecRows[i].handle || v.width != vecRows[i].width || !slices.Equal(v.segs, vecRows[i].segs) {
				t.Fatalf("round %d: resident object %d was freed or moved", round, i)
			}
		}
	}

	sys := smallSystem(t)
	caller := newExecCaller(t, sys, 200)
	for round := range 60 {
		if n := hot(); n != 0 {
			t.Fatalf("round %d: the hot shape verified %d plans instead of replaying", round, n)
		}
		// Misses from 2 to 16 operations: the small ones fit in storage
		// sized for the hot shape, so they take up any of its tables that
		// were wrongly recycled.
		if err := serveRandom(t, srv, rng, 2+round%15); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := caller.run(rng); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// A freed vector's handle stays unknown to later programs: the
		// IR verifier rejects an announcement of it, or an operation
		// reading it, as naming no object, before anything runs.
		v, err := sys.AllocVector(200, 8)
		if err != nil {
			t.Fatal(err)
		}
		h := v.Handle()
		v.Free()
		unknown := fmt.Sprintf("handle %d names no tracked object", h)
		for _, prog := range []isa.Program{
			{{Op: isa.OpTrspInit, Src: [3]uint16{h}, Size: 200, Width: 8}},
			{{Op: isa.FromOp(ops.OpAdd), Dst: caller.vecs[3].handle, Src: [3]uint16{h, caller.vecs[1].handle}, Size: 200, Width: 8}},
		} {
			if _, err := sys.ExecBatch(prog); err == nil || !strings.Contains(err.Error(), unknown) {
				t.Fatalf("round %d: a program naming freed handle %d gave %v, want %q", round, h, err, unknown)
			}
		}
		intact(round)
	}
	if err := caller.check(); err != nil {
		t.Fatal(err)
	}
}
