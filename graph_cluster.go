package simdram

import (
	"simdram/internal/cluster"
	"simdram/internal/graph"
	"simdram/internal/isa"
)

// Lazy wraps a sharded vector as a lazy expression leaf. The vector
// must belong to this Cluster and stay live until the expression is
// materialized; every leaf of one expression must be shard-aligned
// (same placement plan).
func (c *Cluster) Lazy(v *ShardedVector) *Expr { return &Expr{kind: exprShardLeaf, sleaf: v} }

// ClusterCompiled is Compiled for a Cluster: the same lowered bbop
// program, but over cluster-wide handles, with sharded temporaries and
// results — Execute fans the batch out across every channel.
type ClusterCompiled struct {
	cl    *Cluster
	lw    *lowered
	stats CompileStats
	fb    *planFeedback
	freed bool
	// sp is the program sharded and prepared (bind-once) on every
	// channel, built on first Execute: later runs skip sharding,
	// resolution, validation, and scheduling on every channel.
	sp *shardedProgram
}

// Compile lowers the expressions for cluster execution with every
// optimization pass enabled.
func (c *Cluster) Compile(exprs ...*Expr) (*ClusterCompiled, error) {
	return c.CompileWith(CompileOptions{}, exprs...)
}

// CompileWith is Compile with selected passes disabled — primarily for
// differential testing and baseline measurement.
func (c *Cluster) CompileWith(opts CompileOptions, exprs ...*Expr) (*ClusterCompiled, error) {
	env, err := buildEnv(nil, c, opts, exprs)
	if err != nil {
		return nil, err
	}
	plan, stats := planExprs(env, c.plans, c.profiles, nil, 0)
	// Compiler-allocated vectors must share the leaves' placement plan,
	// or per-instruction shard alignment fails at execution. Striping
	// over the first leaf's span order with the same element count
	// reproduces its plan exactly; the allocator double-checks. An
	// expression of only Input data leaves has no sharded leaf to
	// follow, so the cluster's own policy plans the whole group from
	// one load snapshot.
	var firstPlan cluster.Plan
	if env.firstShard != nil {
		firstPlan = env.firstShard.sleaf.plan
	} else {
		firstPlan, err = cluster.MakePlan(env.n, c.policy.Order(c.loads()))
		if err != nil {
			return nil, err
		}
	}
	order := make([]int, len(firstPlan.Spans))
	for i, span := range firstPlan.Spans {
		order[i] = span.Channel
	}
	lw, err := lowerPlan(env, plan, exprs,
		func(width int) (graphObj, error) {
			v, err := c.allocSharded(env.n, width, cluster.Affinity{Channels: order}, func(sys *System, count int) (*Vector, error) {
				return sys.AllocVector(count, width)
			})
			if err != nil {
				return nil, err
			}
			if !v.plan.Equal(firstPlan) {
				v.Free()
				return nil, errorf("graph: cannot reproduce the leaf placement plan for a temporary")
			}
			return v, nil
		},
		func(id graph.NodeID) graphObj { return env.leafOf[id].sleaf },
		leafDataOf(env),
	)
	if err != nil {
		return nil, err
	}
	if err := c.verifyLowered(lw); err != nil {
		lw.freeTemps()
		lw.discardResults()
		return nil, err
	}
	lw.publish()
	return &ClusterCompiled{cl: c, lw: lw, stats: stats, fb: feedbackFor(c.profiles, env, plan, opts, c.cfg.Channel)}, nil
}

// PlanCacheStats reports the hit/miss counters of the Cluster's
// compiled-plan cache, which Compile/CompileWith/Materialize consult.
func (c *Cluster) PlanCacheStats() PlanCacheStats { return cacheStats(c.plans) }

// ProfileStats reports the Cluster's shape-profile counters: executed
// Materialize/Execute batches fold their measured per-op latencies
// into per-shape profiles, and divergent shapes are recompiled with
// observed costs on their next Compile.
func (c *Cluster) ProfileStats() ProfileStats { return profileStats(c.profiles) }

// Materialize compiles and executes the expressions as one batch fanned
// across every channel, releasing every temporary afterwards. Each
// expression's value is then available through ShardedResult; result
// vectors are owned by the caller. On error no results are retained.
func (c *Cluster) Materialize(exprs ...*Expr) (ClusterBatchStats, error) {
	cp, err := c.Compile(exprs...)
	if err != nil {
		return ClusterBatchStats{}, err
	}
	st, err := cp.Execute()
	cp.Free()
	if err != nil {
		cp.discardResults()
		return ClusterBatchStats{}, err
	}
	return st, nil
}

// Stats reports what the compiler did with the graph.
func (cp *ClusterCompiled) Stats() CompileStats { return cp.stats }

// Program returns a copy of the lowered bbop program over cluster-wide
// handles.
func (cp *ClusterCompiled) Program() isa.Program {
	return append(isa.Program(nil), cp.lw.prog...)
}

// Execute runs the compiled batch across the cluster. Results become
// valid once it returns; calling it again recomputes them in place.
// The first run shards the program and binds each channel's share once
// (resolution, validation, scheduling, bound μProgram views);
// repeated runs reuse those prepared forms and pay only the execution
// loops. Each successful run folds its measured per-op latencies (the
// slowest shard of each instruction) into the Cluster's shape profile,
// feeding the profile-guided recompile loop.
func (cp *ClusterCompiled) Execute() (ClusterBatchStats, error) {
	if cp.freed {
		return ClusterBatchStats{}, errorf("graph: compiled program already freed")
	}
	if len(cp.lw.prog) == 0 {
		return ClusterBatchStats{}, nil
	}
	if cp.sp == nil {
		sp, err := cp.cl.prepareSharded(cp.lw.prog)
		if err != nil {
			return ClusterBatchStats{}, err
		}
		cp.sp = sp
	} else if err := cp.cl.checkSharded(cp.sp); err != nil {
		return ClusterBatchStats{}, err
	}
	st, opNs, err := cp.cl.runSharded(cp.sp)
	if err != nil {
		return ClusterBatchStats{}, err
	}
	cp.fb.record(opNs)
	return st, nil
}

// Free releases the compiler-allocated temporaries and constant splats.
// Result vectors are untouched — they belong to the caller.
func (cp *ClusterCompiled) Free() {
	if cp.freed {
		return
	}
	cp.freed = true
	cp.lw.freeTemps()
}

// discardResults releases compiler-owned result vectors and clears the
// expressions' result pointers — the cleanup path when execution fails.
func (cp *ClusterCompiled) discardResults() { cp.lw.discardResults() }
