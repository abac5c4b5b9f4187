package simdram_test

import (
	"context"
	"math/rand"
	"runtime/metrics"
	"testing"

	"simdram"
	"simdram/internal/kernels"
	"simdram/internal/workload"
)

// missOps are the operations of the miss-path benchmarks' random DAGs
// (the serve-adhoc mix).
var missOps = [...]string{"addition", "subtraction", "max", "min"}

// randomMissDAG draws one random request shape: nOps 8-bit operations
// over the given leaves, each operation's first operand an earlier
// non-constant node (biased towards recent ones, so chains grow deep)
// and its second either such a node or, one time in four, a fresh
// random constant. Every node nothing consumes is a root.
func randomMissDAG(rng *rand.Rand, leaves []*simdram.Expr, nOps int) []*simdram.Expr {
	live := append([]*simdram.Expr(nil), leaves...)
	used := map[*simdram.Expr]bool{}
	pick := func() *simdram.Expr {
		if rng.Intn(2) == 0 && len(live) > 4 {
			return live[len(live)-1-rng.Intn(4)]
		}
		return live[rng.Intn(len(live))]
	}
	for i := 0; i < nOps; i++ {
		a := pick()
		var b *simdram.Expr
		if rng.Intn(4) == 0 {
			b = simdram.Scalar(uint64(rng.Intn(256)), 8)
		} else {
			b = pick()
		}
		used[a], used[b] = true, true
		live = append(live, a.Apply(missOps[rng.Intn(len(missOps))], b))
	}
	var roots []*simdram.Expr
	for _, e := range live[len(leaves):] {
		if !used[e] {
			roots = append(roots, e)
		}
	}
	return roots
}

// missPool is the number of distinct DAGs a miss benchmark cycles
// through: far more shapes than the default plan cache holds, so every
// lookup misses.
const missPool = 1024

// BenchmarkGraphCompile times System.Compile of a random 32-op 8-bit
// DAG over four resident vectors, then frees the compiled program:
// "cold" compiles a different shape every iteration (a plan-cache
// miss: IR build, passes, schedule, slot assignment, lowering and
// verification), "hit" recompiles one shape (IR build, cache lookup,
// lowering). Each iteration frees the program and its root vectors.
func BenchmarkGraphCompile(b *testing.B) {
	cfg := simdram.DefaultConfig()
	cfg.DRAM.Cols = 256
	sys, err := simdram.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	sys.SetVerifyPlans(true)
	rng := rand.New(rand.NewSource(1))
	leaves := make([]*simdram.Expr, 4)
	for i := range leaves {
		v, err := sys.AllocVector(256, 8)
		if err != nil {
			b.Fatal(err)
		}
		data := make([]uint64, 256)
		for j := range data {
			data[j] = uint64(rng.Intn(256))
		}
		if err := v.Store(data); err != nil {
			b.Fatal(err)
		}
		leaves[i] = sys.Lazy(v)
	}
	pool := make([][]*simdram.Expr, missPool)
	for i := range pool {
		pool[i] = randomMissDAG(rng, leaves, 32)
	}
	run := func(b *testing.B, dag func(i int) []*simdram.Expr) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			roots := dag(i)
			cp, err := sys.Compile(roots...)
			if err != nil {
				b.Fatal(err)
			}
			cp.Free()
			for _, e := range roots {
				e.Result().Free()
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		run(b, func(i int) []*simdram.Expr { return pool[i%missPool] })
	})
	b.Run("hit", func(b *testing.B) {
		run(b, func(int) []*simdram.Expr { return pool[0] })
	})
}

// BenchmarkServerSubmitMiss times SubmitJob→Wait of one random 32-op
// 8-bit DAG over 256-element Input leaves on a 2-channel server with
// the plan verifier on, a different shape every iteration: the served
// plan-cache miss path end to end (admission pricing, compile, lower,
// prepare with verification, execute, gather). It also reports the
// garbage collector's share of CPU time (gc-cpu-share).
func BenchmarkServerSubmitMiss(b *testing.B) {
	cfg := simdram.DefaultServerConfig(2)
	cfg.Channel.DRAM.Cols = 256
	cfg.VerifyPlans = true
	srv, err := simdram.NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	rng := rand.New(rand.NewSource(1))
	leaves := make([]*simdram.Expr, 4)
	for i := range leaves {
		data := make([]uint64, 256)
		for j := range data {
			data[j] = uint64(rng.Intn(256))
		}
		leaves[i] = simdram.Input(data, 8)
	}
	pool := make([][]*simdram.Expr, missPool)
	for i := range pool {
		pool[i] = randomMissDAG(rng, leaves, 32)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	gc := cpuClasses()
	for i := 0; i < b.N; i++ {
		fut, err := srv.SubmitJob(ctx, simdram.JobSpec{Tenant: "bench"}, pool[i%missPool]...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	gc.report(b)
}

// gcShare measures the garbage collector's share of the process's CPU
// time over a benchmark loop, from the runtime's CPU-class estimates
// (runtime/metrics), which the runtime refreshes at every collection.
type gcShare struct{ gc, total float64 }

// cpuClasses reads the runtime's cumulative GC and total CPU seconds.
func cpuClasses() gcShare {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return gcShare{}
	}
	return gcShare{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// report attaches the GC share of CPU since start (a cpuClasses
// reading) as the gc-cpu-share
// metric; it reports nothing when no collection ran in between.
func (start gcShare) report(b *testing.B) {
	end := cpuClasses()
	if d := end.total - start.total; d > 0 {
		b.ReportMetric((end.gc-start.gc)/d, "gc-cpu-share")
	}
}

// BenchmarkServerSubmitHit times SubmitJob→Wait of serve-hot's request
// mix — brightness in both saturation directions, a BitWeaving scan and
// TPC-H Q6 over 2048-element Input payloads — on a 2-channel server
// with 256-column rows and the plan verifier on, after every shape has
// compiled, converged its profile and run on both channels: the served
// plan-cache hit path end to end (admission pricing, cache lookup,
// storage binding and input stores, the channel's memoized prepared
// program, execute, gather), and the garbage collector's share of CPU
// time (gc-cpu-share).
func BenchmarkServerSubmitHit(b *testing.B) {
	cfg := simdram.DefaultServerConfig(2)
	cfg.Channel.DRAM.Cols = 256
	cfg.VerifyPlans = true
	srv, err := simdram.NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	const n = 2048
	rng := rand.New(rand.NewSource(1))
	vec := func(lo, span int) []uint64 {
		v := make([]uint64, n)
		for i := range v {
			v[i] = uint64(lo + rng.Intn(span))
		}
		return v
	}
	lineitem := workload.LineItem{
		N:             n,
		ShipDate:      vec(9000, 2557),
		Discount:      vec(0, 11),
		Quantity:      vec(1, 50),
		ExtendedPrice: vec(100, 60000),
	}
	shapes := []*simdram.Expr{
		kernels.BrightnessExpr(vec(0, 256), 40),
		kernels.BrightnessExpr(vec(0, 256), -60),
		kernels.BitWeavingLtExpr(vec(0, 256), 100, 8),
		kernels.TPCHQ6Expr(lineitem, kernels.DefaultQ6()),
	}
	ctx := context.Background()
	submit := func(e *simdram.Expr) {
		fut, err := srv.SubmitJob(ctx, simdram.JobSpec{Tenant: "bench"}, e)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	// Cold compiles, profile convergence and the profile-guided
	// recompile, then a few rounds more so each channel holds its
	// prepared programs.
	for round := 0; round < 2*simdram.DefaultProfileMinJobs+8; round++ {
		for _, e := range shapes {
			submit(e)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	gc := cpuClasses()
	for i := 0; i < b.N; i++ {
		submit(shapes[i%len(shapes)])
	}
	gc.report(b)
}
