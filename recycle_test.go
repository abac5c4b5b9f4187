package simdram

// Tests for the recycling of one-shot prepared programs: owners that
// run a program once (ExecBatch, Run, a served job the channel memo
// does not keep) hand its control-unit storage back for reuse, while
// programs that may run again (a Compiled, a memoized served program,
// the Cluster's ExecBatch memo) keep theirs. Every result is checked
// against the CPU baseline.

import (
	"context"
	"math/rand"
	"reflect"
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

// TestServerMissAllocBudget gates the served miss path's allocations:
// a one-channel server serves a fixed set of 32-op 8-bit random DAGs
// over 256-element Input leaves. Its plan cache is off, so every job
// compiles, prepares, verifies exactly one plan and releases in full.
func TestServerMissAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector allocates; gate runs in the non-race CI job")
	}
	cfg := DefaultServerConfig(1)
	cfg.Channel.DRAM.Cols = 256
	cfg.PlanCacheSize = -1
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rng := rand.New(rand.NewSource(3))
	leaves := make([]*Expr, 4)
	for i := range leaves {
		leaves[i] = Input(randData(rng, 256, 8), 8)
	}
	const shapes = 64
	dags := make([][]*Expr, shapes)
	for i := range dags {
		dags[i] = buildRandomDAG(rng, leaves, 8, 32)
	}
	i := 0
	serve := func() {
		verified := srv.VerifiedPlans()
		fut, err := srv.SubmitJob(context.Background(), JobSpec{Tenant: "budget"}, dags[i%shapes]...)
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
	for range shapes {
		serve()
	}
	// 72 measured (Go 1.24, x86-64) plus 10%.
	const budget = 79
	allocs := testing.AllocsPerRun(shapes, serve)
	if allocs > budget {
		t.Fatalf("a served miss allocated %.0f times, budget %d", allocs, budget)
	}
	t.Logf("a served miss allocated %.0f times, budget %d", allocs, budget)
}
