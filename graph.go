package simdram

import (
	"sync"

	"simdram/internal/graph"
	"simdram/internal/isa"
	"simdram/internal/obs"
	"simdram/internal/ops"
)

// Expr is a lazy vector expression: a node of a dataflow DAG that
// nothing executes until Materialize (or Compile + Execute) lowers the
// whole graph to one batched bbop program. Combinators build new
// expressions without touching DRAM:
//
//	a, b, c := sys.Lazy(va), sys.Lazy(vb), sys.Lazy(vc)
//	e := a.Add(b).Mul(c.Sub(a))
//	stats, _ := sys.Materialize(e)
//	out, _ := e.Result().Load()
//
// The compiler folds constant subexpressions, merges common
// subexpressions, drops dead nodes, orders instructions with a
// cost-model-driven list schedule, and packs intermediates into a
// small pool of reused temporary-row vectors instead of allocating one
// per node. Expressions are cheap immutable trees: sharing an *Expr
// between two larger expressions shares the computation, and even
// structurally duplicated subtrees are merged by CSE at compile time.
type Expr struct {
	kind   exprKind
	opName string
	args   []*Expr
	leaf   *Vector
	sleaf  *ShardedVector
	data   []uint64
	val    uint64
	width  int

	result  *Vector
	sresult *ShardedVector
}

type exprKind uint8

const (
	exprLeaf exprKind = iota
	exprShardLeaf
	exprData
	exprConst
	exprOp
)

// Lazy wraps a vector as a lazy expression leaf. The vector must
// belong to this System and stay live until the expression is
// materialized.
func (s *System) Lazy(v *Vector) *Expr { return &Expr{kind: exprLeaf, leaf: v} }

// Input returns a data leaf: a vector the compiler allocates, stores,
// and owns, holding the given elements at the given width. Data leaves
// make an expression self-contained — no pre-allocated Vector, no
// binding to a particular System or Cluster until compile time — which
// is what lets a Server dispatch the same expression shape onto
// whichever channel is free, and what lets the plan cache treat two
// requests with different payloads as the same shape. A data leaf used
// only as an operand is released with the compiler's temporaries; a
// data leaf that is itself a materialization root keeps its storage as
// that root's result. The data slice must stay unmodified until the
// expression is materialized.
func Input(data []uint64, width int) *Expr {
	return &Expr{kind: exprData, data: data, width: width}
}

// Scalar returns a constant expression: the value splatted across
// every lane at the given width. Operations whose arguments are all
// constants fold at compile time through the operation's golden model;
// constants that survive folding materialize as one stored vector each
// (deduplicated by CSE), never as DRAM compute.
func Scalar(val uint64, width int) *Expr {
	return &Expr{kind: exprConst, val: val, width: width}
}

// Apply builds the expression op(e, more...) for any operation in the
// catalog — built-in or registered through DefineOperation. The
// receiver is operand 0. Unknown names and arity or width mismatches
// are reported at compile time.
func (e *Expr) Apply(opName string, more ...*Expr) *Expr {
	return &Expr{kind: exprOp, opName: opName, args: append([]*Expr{e}, more...)}
}

// Add returns e + o (mod 2^w).
func (e *Expr) Add(o *Expr) *Expr { return e.Apply("addition", o) }

// Sub returns e - o (mod 2^w).
func (e *Expr) Sub(o *Expr) *Expr { return e.Apply("subtraction", o) }

// Mul returns e × o; the result carries the full product width (2w
// capped at 64).
func (e *Expr) Mul(o *Expr) *Expr { return e.Apply("multiplication", o) }

// Div returns e / o (unsigned; x/0 = all-ones).
func (e *Expr) Div(o *Expr) *Expr { return e.Apply("division", o) }

// Mod returns e mod o (unsigned; x mod 0 = x).
func (e *Expr) Mod(o *Expr) *Expr { return e.Apply("modulo", o) }

// Max returns the unsigned maximum of e and o.
func (e *Expr) Max(o *Expr) *Expr { return e.Apply("max", o) }

// Min returns the unsigned minimum of e and o.
func (e *Expr) Min(o *Expr) *Expr { return e.Apply("min", o) }

// Equal returns the 1-bit predicate e == o.
func (e *Expr) Equal(o *Expr) *Expr { return e.Apply("equal", o) }

// Greater returns the 1-bit predicate e > o (unsigned).
func (e *Expr) Greater(o *Expr) *Expr { return e.Apply("greater", o) }

// GreaterEqual returns the 1-bit predicate e >= o (unsigned).
func (e *Expr) GreaterEqual(o *Expr) *Expr { return e.Apply("greater_equal", o) }

// Abs returns |e| under the signed two's-complement reading.
func (e *Expr) Abs() *Expr { return e.Apply("abs") }

// Not returns ~e.
func (e *Expr) Not() *Expr { return e.Apply("not") }

// ReLU returns e < 0 ? 0 : e under the signed reading.
func (e *Expr) ReLU() *Expr { return e.Apply("relu") }

// BitCount returns the population count of e (ceil(log2(w+1)) bits).
func (e *Expr) BitCount() *Expr { return e.Apply("bitcount") }

// ShiftLeft returns e << 1 with zero fill.
func (e *Expr) ShiftLeft() *Expr { return e.Apply("shift_left") }

// ShiftRight returns e >> 1 with zero fill.
func (e *Expr) ShiftRight() *Expr { return e.Apply("shift_right") }

// IfElse returns onTrue or onFalse per lane, selected by e, which must
// be a 1-bit predicate (e.g. the result of Greater).
func (e *Expr) IfElse(onTrue, onFalse *Expr) *Expr {
	return onTrue.Apply("if_else", onFalse, e)
}

// Result returns the vector holding this expression's value after a
// System materialization. For a root that is itself a plain leaf it is
// the leaf vector; otherwise it is a fresh vector the caller owns and
// should Free. Nil before the first Materialize/Compile.
func (e *Expr) Result() *Vector { return e.result }

// ShardedResult is Result for cluster materializations.
func (e *Expr) ShardedResult() *ShardedVector { return e.sresult }

// CompileOptions selects the compiler's passes. The zero value runs
// every pass: constant folding, CSE, DCE, the cost-driven list
// schedule and lifetime reuse of temporaries.
type CompileOptions struct {
	// Naive disables every pass: one instruction and one fresh
	// temporary per expression node, in construction order, and no
	// profile feedback.
	Naive bool
}

// NaiveCompile is the per-node baseline the optimized compiler is
// measured against (see CompileOptions.Naive).
var NaiveCompile = CompileOptions{Naive: true}

// CompileStats reports what the graph compiler did with an expression
// DAG.
type CompileStats struct {
	// Nodes is the operation-node count before any pass ran.
	Nodes int
	// Folded is how many operation nodes constant folding replaced.
	Folded int
	// CSEEliminated is how many duplicate nodes merged onto their first
	// occurrence.
	CSEEliminated int
	// DCEEliminated is how many unreachable operation/constant nodes
	// were dropped.
	DCEEliminated int
	// Instructions is the emitted bbop instruction count.
	Instructions int
	// TempRowsNaive is the DRAM rows per subarray that one fresh
	// temporary per intermediate would claim.
	TempRowsNaive int
	// TempRowsPooled is the rows the lifetime-reuse slot pool claims.
	TempRowsPooled int
	// TempSlots is the number of pooled temporary vectors allocated.
	TempSlots int
	// ConstVectors is the number of splatted constant vectors.
	ConstVectors int
	// CacheHit reports that this compilation reused a cached plan:
	// folding, CSE, DCE, scheduling, and slot assignment were all
	// skipped and only operand binding ran. The pass counters above
	// then describe what the original cold compile did.
	CacheHit bool
	// Recompiled reports that this compilation rebuilt the shape's plan
	// from its measured profile: the shape's observed per-op latencies
	// had diverged from the static cost model beyond the profile
	// threshold, so the scheduler re-ran with observed costs and the
	// cached plan was replaced. Only a Server profiles its jobs; a
	// System or Cluster compile never sets this or the two fields
	// below.
	Recompiled bool
	// ProfiledPlan reports that the plan used (freshly rebuilt or
	// cached) was scheduled with observed per-op costs rather than the
	// static model — the jobs that benefit from a past recompile.
	ProfiledPlan bool
	// ProfileJobs is how many executed jobs had been folded into this
	// shape's profile when the plan was resolved (0 when no profile
	// feedback is active for the shape).
	ProfileJobs int
}

// TempRowsSaved returns the fraction of temporary rows lifetime reuse
// avoided allocating (0 when there are no intermediates).
func (s CompileStats) TempRowsSaved() float64 {
	if s.TempRowsNaive == 0 {
		return 0
	}
	return 1 - float64(s.TempRowsPooled)/float64(s.TempRowsNaive)
}

// compileEnv is the shared expression-to-IR front end: it memoizes
// *Expr pointers onto graph nodes (so shared subtrees become shared
// nodes before CSE even runs) and records which leaf backs each input
// node.
//
// An env is recycled (see recycle) once its compilation or served job
// is done: the walk builds the IR graph in the env's own storage
// (build), and planExprs points g at the plan's graph — the cached one
// on a hit, an exact-size copy the plan keeps on a miss — so nothing
// that outlives the env refers to build.
type compileEnv struct {
	sys *System // exactly one of sys/cl is set
	cl  *Cluster

	g          *graph.Graph           // build until planExprs, then the plan's graph
	build      graph.Graph            // the graph buildEnv walks the expressions into
	memo       map[*Expr]graph.NodeID // while buildEnv runs
	leafOf     []*Expr                // node → its leaf expression, nil for other nodes
	first      *Expr                  // first leaf of any kind: defines n
	firstVec   *Expr                  // first Vector leaf: defines System placement
	firstShard *Expr                  // first ShardedVector leaf: defines Cluster placement
	n          int
	opts       CompileOptions // the passes planExprs runs
	key        string         // plan-cache shape key: opts plus canonical graph
	// served marks a Server job, which must run on any channel: the walk
	// rejects leaves bound to pre-allocated storage (see unservable).
	served bool
}

// unservable is a served job's admission rejection: an expression a
// Server cannot run on whichever channel comes free. SubmitJob fails
// with it at once, where any other error of the walk fails the job's
// future at run time.
type unservable struct{ error }

func (env *compileEnv) node(e *Expr) (graph.NodeID, error) {
	if e == nil {
		if env.served {
			return 0, unservable{errorf("server: nil expression")}
		}
		return 0, errorf("graph: nil expression")
	}
	if id, ok := env.memo[e]; ok {
		return id, nil
	}
	if env.served && (e.kind == exprLeaf || e.kind == exprShardLeaf) {
		return 0, unservable{errorf("server: expression is bound to a pre-allocated vector; server jobs must use Input data leaves so they can run on any free channel")}
	}
	var id graph.NodeID
	var err error
	switch e.kind {
	case exprLeaf:
		if env.cl != nil {
			return 0, errorf("graph: plain Vector leaf in a Cluster expression (use Cluster.Lazy)")
		}
		v := e.leaf
		if v == nil || v.freed {
			return 0, errorf("graph: leaf vector is nil or freed")
		}
		if v.sys != env.sys {
			return 0, errorf("graph: leaf vector belongs to a different System")
		}
		if env.first == nil {
			env.first, env.n = e, v.n
		} else if v.n != env.n {
			return 0, errorf("graph: leaf has %d elements, expression has %d", v.n, env.n)
		}
		if env.firstVec == nil {
			env.firstVec = e
		} else if !v.aligned(env.firstVec.leaf) {
			return 0, errorf("graph: leaf vectors are not segment-aligned (allocate them with the same length and placement)")
		}
		if id, err = env.g.Input(v.width); err != nil {
			return 0, err
		}
	case exprShardLeaf:
		if env.sys != nil {
			return 0, errorf("graph: ShardedVector leaf in a System expression (use System.Lazy)")
		}
		v := e.sleaf
		if v == nil || v.freed {
			return 0, errorf("graph: leaf sharded vector is nil or freed")
		}
		if v.cl != env.cl {
			return 0, errorf("graph: leaf sharded vector belongs to a different Cluster")
		}
		if env.first == nil {
			env.first, env.n = e, v.n
		} else if v.n != env.n {
			return 0, errorf("graph: leaf has %d elements, expression has %d", v.n, env.n)
		}
		if env.firstShard == nil {
			env.firstShard = e
		} else if !v.aligned(env.firstShard.sleaf) {
			return 0, errorf("graph: leaf vectors are not segment-aligned (allocate them with the same length and placement)")
		}
		if id, err = env.g.Input(v.width); err != nil {
			return 0, err
		}
	case exprData:
		if len(e.data) == 0 {
			return 0, errorf("graph: data leaf is empty")
		}
		if env.first == nil {
			env.first, env.n = e, len(e.data)
		} else if len(e.data) != env.n {
			return 0, errorf("graph: data leaf has %d elements, expression has %d", len(e.data), env.n)
		}
		if id, err = env.g.Input(e.width); err != nil {
			return 0, err
		}
	case exprConst:
		if id, err = env.g.Const(e.val, e.width); err != nil {
			return 0, err
		}
	case exprOp:
		d, err := ops.ByName(e.opName)
		if err != nil {
			return 0, err
		}
		var buf [3]graph.NodeID // the ISA's limit; Op rejects more
		argIDs := buf[:0]
		for _, a := range e.args {
			aid, err := env.node(a)
			if err != nil {
				return 0, err
			}
			argIDs = append(argIDs, aid)
		}
		if id, err = env.g.Op(d, argIDs...); err != nil {
			return 0, err
		}
	default:
		return 0, errorf("graph: unknown expression kind %d", e.kind)
	}
	// Each call adds exactly one node, after its arguments', so node id
	// is leafOf's next entry.
	var leaf *Expr
	if e.kind != exprOp && e.kind != exprConst {
		leaf = e
	}
	env.leafOf = append(env.leafOf, leaf)
	env.memo[e] = id
	return id, nil
}

// envPool recycles compile environments with their graph, memo and
// leaf tables (see compileEnv.recycle).
var envPool = sync.Pool{New: func() any { return &compileEnv{memo: map[*Expr]graph.NodeID{}} }}

// memoKeep bounds the memo a recycled env keeps: clearing costs the
// map's size, so one huge DAG must not tax every later compile.
const memoKeep = 1 << 12

// recycle returns env to envPool. The caller must be done with env:
// its graph storage, leaf table and key are reused by later
// compilations.
func (env *compileEnv) recycle() {
	if len(env.memo) > memoKeep {
		env.memo = map[*Expr]graph.NodeID{}
	} else {
		clear(env.memo)
	}
	clear(env.leafOf)
	env.build.Reset()
	*env = compileEnv{build: env.build, memo: env.memo, leafOf: env.leafOf[:0]}
	envPool.Put(env)
}

// optsKey encodes the options into the plan-cache key: the same shape
// compiled naively yields a different plan, so the options are part of
// the shape's identity.
func optsKey(opts CompileOptions) string {
	if opts.Naive {
		return "1|"
	}
	return "0|"
}

// planExprs runs the backend-independent half of compilation over an
// IR graph buildEnv built: either reuse a cached plan for this shape or
// run the enabled passes, schedule, and assign temporaries to slots
// over a copy of the graph the plan keeps. Either way env.g is then
// swapped for the plan's optimized graph — the fresh graph and the
// plan's are structurally identical by construction (the cache key is
// the exact pre-pass serialization, and passes never renumber nodes),
// so the node IDs in env.leafOf remain valid. Concurrent cold compiles
// of one shape are deduplicated by the cache (PlanCache.Do): one caller
// compiles, the rest wait for its plan. cache may be nil (no caching).
//
// When the shape's measured per-op latencies have diverged from the
// static cost model (PlanCache.TakeRecompile), the cached plan is
// replaced by one rebuilt with observed costs — exactly one caller per
// cached shape performs the recompile. Only a Server records profiles
// (see runLazy), so a System's or Cluster's cache never recompiles.
// Profile feedback only reprices the schedule, so a naive compile,
// which keeps construction order, takes none.
//
// tr, when non-nil, receives "cache-lookup" and (on a cold compile or
// recompile) "schedule" spans under parent — the serving layer's
// per-job trace. Pass a nil trace (and any parent) when not tracing.
func planExprs(env *compileEnv, cache *graph.PlanCache, tr *obs.Trace, parent int) (*graph.Plan, CompileStats) {
	var stats CompileStats
	naive := env.opts.Naive
	for id := 0; id < env.g.Len(); id++ {
		if env.g.Node(graph.NodeID(id)).Kind == graph.KindOp {
			stats.Nodes++
		}
	}
	key := env.key
	model := planModel(env.sys, env.cl)
	var plan *graph.Plan
	look := tr.Begin("cache-lookup", parent)
	if !naive && cache.TakeRecompile(key) {
		tr.End(look)
		sspan := tr.Begin("schedule", parent)
		plan = buildPlan(env.g.Clone(), false, cache.ScheduleCost(key, model))
		plan.Profiled = true
		cache.Replace(key, plan)
		stats.Recompiled = true
		tr.End(sspan)
	} else {
		var hit bool
		plan, hit = cache.Do(key, func() *graph.Plan {
			// This caller lost the lookup and is the one compiling: close
			// the lookup span here so it measures the decision, not the
			// build, and account the build to "schedule".
			tr.End(look)
			sspan := tr.Begin("schedule", parent)
			defer tr.End(sspan)
			return buildPlan(env.g.Clone(), naive, model)
		})
		tr.End(look)
		stats.CacheHit = hit
	}
	env.g = plan.Graph
	stats.ProfiledPlan = plan.Profiled
	stats.ProfileJobs = cache.Jobs(key)
	stats.Folded = plan.Folded
	stats.CSEEliminated = plan.CSEEliminated
	stats.DCEEliminated = plan.DCEEliminated
	stats.Instructions = len(plan.Sched)
	stats.TempRowsNaive = plan.Asg.NaiveRows
	stats.TempRowsPooled = plan.Asg.PooledRows
	stats.TempSlots = len(plan.Asg.SlotWidths)
	for id := 0; id < env.g.Len(); id++ {
		n := env.g.Node(graph.NodeID(id))
		if n.Kind == graph.KindConst && env.g.Alive(graph.NodeID(id)) && !n.Root {
			stats.ConstVectors++
		}
	}
	return plan, stats
}

// buildEnv constructs the IR graph from the expression trees and its
// plan-cache key under opts — the front half of compilation, which
// planExprs completes — in a recycled env the caller recycles when it
// is done with it. The server builds it once per job, at admission,
// and plans and prices the job there; served makes the same walk
// reject what a Server cannot run (see unservable).
func buildEnv(sys *System, cl *Cluster, opts CompileOptions, exprs []*Expr, served bool) (*compileEnv, error) {
	if len(exprs) == 0 {
		return nil, errorf("graph: nothing to materialize")
	}
	env := envPool.Get().(*compileEnv)
	env.sys, env.cl, env.opts, env.served = sys, cl, opts, served
	env.g = &env.build
	for _, e := range exprs {
		id, err := env.node(e)
		if err != nil {
			env.recycle()
			return nil, err
		}
		env.g.MarkRoot(id)
	}
	clear(env.memo)
	if env.first == nil {
		env.recycle()
		return nil, errorf("graph: expression has no vector or data leaf, element count unknown (combine constants with at least one Lazy vector or Input data leaf)")
	}
	env.key = env.g.CanonicalKey(optsKey(opts))
	return env, nil
}

// planModel returns the static cost model scheduling costs come from:
// sys's, or a Cluster's first channel's (every channel of a Cluster
// shares its configuration).
func planModel(sys *System, cl *Cluster) graph.CostFn {
	if sys != nil {
		return sys.model
	}
	return cl.channels[0].model
}

// modelCost returns the static cost model for one channel geometry:
// the per-op μProgram latency under the system's own timing constants
// — what the scheduler prices with before any profile feedback exists,
// and the baseline measured profiles are compared against. A System
// builds its model once (System.model).
func modelCost(cfg Config) graph.CostFn {
	variant, timing := cfg.Variant, cfg.DRAM.Timing
	return func(d ops.Def, w, n int) float64 {
		c, err := ops.CostNs(d, w, n, variant, timing)
		if err != nil {
			return 1 // synthesis failures resurface with context at execution
		}
		return c
	}
}

// buildPlan runs the optimization passes, the scheduler, and the slot
// assigner over a freshly built graph — the cold-compile path the plan
// cache memoizes. cost prices the list schedule: the static model on a
// cold compile, observed per-op latencies on a profile-guided
// recompile. A naive plan runs no pass: construction order, one fresh
// temporary per intermediate.
func buildPlan(g *graph.Graph, naive bool, cost graph.CostFn) *graph.Plan {
	plan := &graph.Plan{Graph: g}
	if naive {
		plan.Sched = g.ProgramOrder()
		plan.Asg = graph.Assign(g, plan.Sched, false)
		return plan
	}
	plan.Folded = g.FoldConstants()
	plan.CSEEliminated = g.CSE()
	plan.DCEEliminated = g.DCE()
	plan.Sched = g.Schedule(cost)
	plan.Asg = graph.Assign(g, plan.Sched, true)
	return plan
}

// graphObj is the slice of the Vector/ShardedVector surface the
// shared lowering back end needs: one implementation of the slot,
// constant, and result bookkeeping serves both the System and the
// Cluster compiler. loadInto (Load into a caller's slice) is what the
// serving path gathers results with before releasing a job's storage.
type graphObj interface {
	Handle() uint16
	Store([]uint64) error
	storeSplat(val uint64) error // Store of val in every element, without a transpose
	loadInto(out []uint64) error
	Free()
}

// lowered is a compiled graph bound to storage: the bbop program plus
// the temporary, constant, and result objects it runs against. A
// lowered and its tables are recycled by release (see loweredPool).
type lowered struct {
	prog    isa.Program
	temps   []graphObj // pooled slots and constant splats
	results []compiledResult
	// slotObj holds each temporary slot's object; nodeObj each live
	// input's, constant's and root's (nil for other nodes, which live
	// in their slot).
	slotObj []graphObj
	nodeObj []graphObj
	// stored lists the nodes whose objects bindPlan stored (data
	// leaves) or splatted (constants), in the order it did: the order a
	// replay repeats the stores in (see hitEntry.store).
	stored []graph.NodeID
	// g is the graph nodeObj is indexed by: its node kinds tell the IR
	// verifier which objects hold data before the program runs (see
	// markDefined).
	g *graph.Graph
	// verified is set once verifyLowered has checked prog, so preparing
	// it does not check it again.
	verified bool
	// objs is the one array slotObj, nodeObj and temps share.
	objs []graphObj
	// slab, for a served job, is the slab its Vectors came from (see
	// bindJob), recycled with the binding.
	slab *vectorSlab
}

// loweredPool recycles released bindings with their object tables and
// program.
var loweredPool = sync.Pool{New: func() any { return new(lowered) }}

type compiledResult struct {
	expr  *Expr
	obj   graphObj
	owned bool // allocated by the compiler (as opposed to a leaf)
}

// lowerPlan binds a planned graph to storage (bindPlan) and lowers it
// to the bbop program over the bound objects' handles (lowerProgram):
// the one bind-and-lower path of System and Cluster compiles and of
// served jobs. alloc is the backend's placement-aligned allocator. On
// any failure everything allocated is released. Result pointers on the
// expressions are NOT set here — callers publish them only after the
// whole compilation succeeds, so a failed Compile never leaves an
// expression pointing at a freed vector.
func lowerPlan(env *compileEnv, plan *graph.Plan, exprs []*Expr, alloc func(width int) (graphObj, error)) (*lowered, error) {
	lw, err := bindPlan(env, plan, exprs, alloc)
	if err != nil {
		return nil, err
	}
	if err := lw.lowerProgram(env, plan); err != nil {
		lw.release()
		return nil, err
	}
	return lw, nil
}

// liveLeaves counts g's live inputs and constants: the objects bindPlan
// binds besides slots and roots, and at least the objects it stores.
func liveLeaves(g *graph.Graph) int {
	n := 0
	for id := 0; id < g.Len(); id++ {
		if k := g.Node(graph.NodeID(id)).Kind; k != graph.KindOp && g.Alive(graph.NodeID(id)) {
			n++
		}
	}
	return n
}

// bindPlan is the storage half of lowering: pooled slot objects for
// intermediates, dedicated objects for roots (a node rooted twice
// shares one), splat-stored objects for surviving constants, and
// allocated-and-stored objects for data leaves, allocated in that
// order. Every live input resolves through env.leafOf: a Lazy leaf
// binds the caller's Vector, a Cluster.Lazy leaf the caller's
// ShardedVector, and an Input leaf an object alloc returns, stored
// with its payload. On any failure everything allocated so far is
// released.
func bindPlan(env *compileEnv, plan *graph.Plan, exprs []*Expr, alloc func(width int) (graphObj, error)) (*lowered, error) {
	g, asg := env.g, plan.Asg
	stores := liveLeaves(g)
	// The slot, node and temporary tables share one array; temps,
	// which holds every slot plus the non-root stores, is
	// capacity-capped so appending to it never spills into the others.
	slots := len(asg.SlotWidths)
	lw := loweredPool.Get().(*lowered)
	objs := sized(lw.objs, slots+g.Len()+slots+stores)
	lw.g, lw.objs = g, objs
	lw.slotObj = objs[:slots:slots]
	lw.nodeObj = objs[slots : slots+g.Len() : slots+g.Len()]
	lw.temps = objs[slots+g.Len() : slots+g.Len() : len(objs)]
	lw.results = grown(lw.results, len(exprs))
	lw.stored = grown(lw.stored, stores)
	// Root data-leaf storage sits in pending between its allocation in
	// the input loop and its adoption as an owned result in the roots
	// loop; fail frees whatever has not been adopted yet, so a failure
	// in between cannot leak rows.
	var pending []graphObj
	fail := func(err error) (*lowered, error) {
		for _, o := range pending {
			if o != nil {
				o.Free()
			}
		}
		lw.release()
		return nil, err
	}

	for i, w := range asg.SlotWidths {
		o, err := alloc(w)
		if err != nil {
			return fail(errorf("graph: temporary slot %d: %w", i, err))
		}
		lw.slotObj[i] = o
		lw.temps = append(lw.temps, o)
	}

	// Storage for every live input: the caller's vector for Lazy
	// leaves; an allocated, payload-stored vector for Input data
	// leaves. A non-root data leaf is released with the temporaries; a
	// root one becomes that root's owned result below.
	for id := 0; id < g.Len(); id++ {
		nid := graph.NodeID(id)
		node := g.Node(nid)
		if node.Kind != graph.KindInput || !g.Alive(nid) {
			continue
		}
		leaf := env.leafOf[nid]
		switch leaf.kind {
		case exprLeaf:
			lw.nodeObj[nid] = leaf.leaf
			continue
		case exprShardLeaf:
			lw.nodeObj[nid] = leaf.sleaf
			continue
		}
		o, err := alloc(node.Width)
		if err != nil {
			return fail(errorf("graph: data leaf: %w", err))
		}
		if node.Root {
			pending = append(pending, o)
		} else {
			lw.temps = append(lw.temps, o)
		}
		if err := o.Store(leaf.data); err != nil {
			return fail(err)
		}
		lw.nodeObj[nid] = o
		lw.stored = append(lw.stored, nid)
	}

	// Dedicated storage for the roots, allocated before the shared
	// constant pool so a root constant gets caller-owned storage.
	for i, rid := range g.Roots() {
		obj, owned := lw.nodeObj[rid], true
		node := g.Node(rid)
		switch {
		case node.Kind == graph.KindInput:
			// A data leaf's storage moves from pending to the results
			// (a node rooted twice shares it); a caller's vector stays
			// the caller's.
			owned = env.leafOf[rid].kind == exprData
			for k, o := range pending {
				if o == obj {
					pending[k] = nil
				}
			}
		case obj == nil:
			o, err := alloc(node.Width)
			if err != nil {
				return fail(errorf("graph: result %d: %w", i, err))
			}
			if node.Kind == graph.KindConst {
				if err := o.storeSplat(node.Val); err != nil {
					o.Free()
					return fail(err)
				}
				lw.stored = append(lw.stored, rid)
			}
			obj = o
			lw.nodeObj[rid] = o
		}
		lw.results = append(lw.results, compiledResult{expr: exprs[i], obj: obj, owned: owned})
	}

	// Splat-stored objects for live non-root constants.
	for id := 0; id < g.Len(); id++ {
		nid := graph.NodeID(id)
		node := g.Node(nid)
		if node.Kind != graph.KindConst || !g.Alive(nid) || node.Root {
			continue
		}
		o, err := alloc(node.Width)
		if err != nil {
			return fail(errorf("graph: constant vector: %w", err))
		}
		lw.temps = append(lw.temps, o)
		if err := o.storeSplat(node.Val); err != nil {
			return fail(err)
		}
		lw.nodeObj[nid] = o
		lw.stored = append(lw.stored, nid)
	}
	return lw, nil
}

// lowerProgram is the program half of lowering: the bbop program over
// the objects bindPlan bound.
func (lw *lowered) lowerProgram(env *compileEnv, plan *graph.Plan) error {
	g := env.g
	handle := func(id graph.NodeID) (uint16, error) {
		if o := lw.nodeObj[id]; o != nil {
			return o.Handle(), nil
		}
		switch g.Node(id).Kind {
		case graph.KindInput:
			return 0, errorf("graph: input node %d has no storage", id)
		case graph.KindConst:
			return 0, errorf("graph: constant node %d has no storage", id)
		}
		slot := plan.Asg.SlotOf[id]
		if slot < 0 {
			return 0, errorf("graph: intermediate node %d has no slot", id)
		}
		return lw.slotObj[slot].Handle(), nil
	}
	prog, err := graph.Lower(lw.prog[:0], g, plan.Sched, handle, uint32(env.n))
	if err != nil {
		return err
	}
	lw.prog = prog
	return nil
}

// release frees every object the binding allocated — the temporaries
// and the compiler-owned results — and recycles lw with its tables,
// its program and its slab. The owner must be done with lw and with
// any prepared program that binds its objects: a served job's is
// released with it (see preparedProgram.release).
func (lw *lowered) release() {
	lw.freeTemps()
	for _, r := range lw.results {
		if r.owned {
			r.obj.Free()
		}
	}
	if lw.slab != nil {
		lw.slab.recycle()
	}
	clear(lw.objs)
	clear(lw.results)
	*lw = lowered{prog: lw.prog[:0], results: lw.results[:0], stored: lw.stored[:0], objs: lw.objs[:0]}
	loweredPool.Put(lw)
}

// publish points each root expression at its result storage — called
// once compilation has fully succeeded.
func (lw *lowered) publish() {
	for _, r := range lw.results {
		switch v := r.obj.(type) {
		case *Vector:
			r.expr.result, r.expr.sresult = v, nil
		case *ShardedVector:
			r.expr.sresult, r.expr.result = v, nil
		}
	}
}

// freeTemps releases the pooled slots and constant splats.
func (lw *lowered) freeTemps() {
	for _, o := range lw.temps {
		o.Free()
	}
	lw.temps = nil
}

// discardResults releases compiler-owned result storage and clears the
// expressions' result pointers — the cleanup path when execution fails
// and the results never became valid.
func (lw *lowered) discardResults() {
	for _, r := range lw.results {
		if r.owned {
			r.obj.Free()
		}
		switch v := r.obj.(type) {
		case *Vector:
			if r.expr.result == v {
				r.expr.result = nil
			}
		case *ShardedVector:
			if r.expr.sresult == v {
				r.expr.sresult = nil
			}
		}
	}
	lw.results = nil
}

// Compiled is a lazily built expression graph lowered for one System:
// the batched bbop program plus the temporary, constant, and result
// vectors it runs against. Execute may be called repeatedly (results
// are recomputed in place); Free releases the pooled temporaries and
// constants while the result vectors stay with the caller.
type Compiled struct {
	sys   *System
	lw    *lowered
	stats CompileStats
	freed bool
	// pp is the prepared (bind-once) form of lw.prog, built on first
	// Execute: later runs skip resolution, validation, and scheduling.
	pp *preparedProgram
}

// Compile lowers the expressions with every optimization pass enabled.
func (s *System) Compile(exprs ...*Expr) (*Compiled, error) {
	return s.CompileWith(CompileOptions{}, exprs...)
}

// CompileWith lowers the expressions with selected passes disabled —
// primarily for differential testing and baseline measurement; regular
// callers want Compile or Materialize.
func (s *System) CompileWith(opts CompileOptions, exprs ...*Expr) (*Compiled, error) {
	env, err := buildEnv(s, nil, opts, exprs, false)
	if err != nil {
		return nil, err
	}
	defer env.recycle()
	plan, stats := planExprs(env, s.plans, nil, 0)
	origin := 0
	if env.firstVec != nil {
		origin = env.firstVec.leaf.origin()
	}
	lw, err := lowerPlan(env, plan, exprs,
		func(width int) (graphObj, error) { return s.allocVector(env.n, width, origin) })
	if err != nil {
		return nil, err
	}
	if err := s.verifyLowered(lw); err != nil {
		lw.freeTemps()
		lw.discardResults()
		return nil, err
	}
	lw.publish()
	return &Compiled{sys: s, lw: lw, stats: stats}, nil
}

// PlanCacheStats reports a compiled-plan cache's counters: hits,
// misses, evictions (EvictedHot counts warm plans lost to capacity
// pressure), coalesced compiles, occupancy, and the eviction policy. A
// disabled cache reports the zero value.
type PlanCacheStats = graph.CacheStats

// PlanCacheStats reports the hit/miss counters of the System's
// compiled-plan cache, which Compile/CompileWith/Materialize consult.
func (s *System) PlanCacheStats() PlanCacheStats { return s.plans.Stats() }

// ProfileStats reports a Server's profile-feedback counters (see
// ServerStats.Profile): profiled shapes, executed jobs folded into
// profiles, and profile-guided recompiles.
type ProfileStats = graph.ProfileStats

// Materialize compiles and executes the expressions as one batch,
// releasing every temporary afterwards. Each expression's value is then
// available through Result; result vectors are owned by the caller
// (Free them when done). On error no results are retained.
func (s *System) Materialize(exprs ...*Expr) (BatchStats, error) {
	cp, err := s.Compile(exprs...)
	if err != nil {
		return BatchStats{}, err
	}
	st, err := cp.Execute()
	cp.Free()
	if err != nil {
		cp.discardResults()
		return BatchStats{}, err
	}
	return st, nil
}

// Stats reports what the compiler did with the graph.
func (cp *Compiled) Stats() CompileStats { return cp.stats }

// Program returns a copy of the lowered bbop program — what Execute
// hands to ExecBatch, and what a serial baseline can feed through Exec
// one instruction at a time.
func (cp *Compiled) Program() isa.Program {
	return append(isa.Program(nil), cp.lw.prog...)
}

// Execute runs the compiled batch. Results become valid once it
// returns; calling it again recomputes them in place. The first run
// binds the program once (instruction resolution, binding validation,
// scheduling, bound μProgram views); repeated runs reuse that
// prepared form and pay only the execution loop.
func (cp *Compiled) Execute() (BatchStats, error) {
	if cp.freed {
		return BatchStats{}, errorf("graph: compiled program already freed")
	}
	if len(cp.lw.prog) == 0 {
		// Every root was a leaf or a folded constant: the results are
		// already materialized by allocation/splat alone.
		return BatchStats{}, nil
	}
	if cp.pp == nil {
		pp, err := cp.sys.prepareProgramTraced(cp.lw.prog, cp.lw, nil, 0)
		if err != nil {
			return BatchStats{}, err
		}
		cp.pp = pp
	}
	return cp.sys.runPrepared(cp.pp, nil)
}

// Free releases the compiler-allocated temporaries and constant splats
// and recycles the prepared program, which nothing runs again. Result
// vectors are untouched — they belong to the caller.
func (cp *Compiled) Free() {
	if cp.freed {
		return
	}
	cp.freed = true
	cp.lw.freeTemps()
	if cp.pp != nil {
		cp.pp.release()
		cp.pp = nil
	}
}

// discardResults releases compiler-owned result vectors and clears the
// expressions' result pointers — the cleanup path when execution fails
// and the results never became valid.
func (cp *Compiled) discardResults() { cp.lw.discardResults() }

// origin returns the bank-major segment origin of the vector's first
// segment — the placement a compiler-allocated temporary must share
// with the expression's leaves to be segment-aligned with them.
func (v *Vector) origin() int {
	seg := v.segs[0]
	return seg.bank + seg.sub*v.sys.cfg.DRAM.Banks
}
