package graph

import (
	"slices"
	"sync"

	"simdram/internal/ops"
)

// CostFn estimates the latency of one operation instruction: d applied
// at operation width w over n operands. The facade plugs in
// ops.CostNs under the system's own timing constants, so scheduling
// decisions use the same per-op timings execution bills; a
// profile-guided recompile instead plugs in PlanCache.ScheduleCost,
// which prices op classes at the latencies the batch engine actually
// measured (the static model is per-subarray and does not see, e.g.,
// how many segments of a long vector serialize on one bank).
type CostFn func(d ops.Def, width, n int) float64

// EstimateMakespanNs prices a schedule under the given cost model with
// a deterministic in-order greedy simulation on `machines` parallel
// resources — the graph-level proxy for the batch engine's
// bank-limited overlap (issue in schedule order; a node starts when
// its argument nodes have finished and the earliest machine frees).
// It lets two candidate schedules of the same graph be compared under
// one cost model, which is how a profile-guided recompile guarantees
// it never installs a schedule worse than the one it replaces. A nil
// sched prices ProgramOrder's schedule without building it.
func (g *Graph) EstimateMakespanNs(sched []NodeID, cost CostFn, machines int) float64 {
	if machines < 1 {
		machines = 1
	}
	sc := schedPool.Get().(*schedScratch)
	defer schedPool.Put(sc)
	finish := sized(sc.f0, len(g.nodes))
	free := sized(sc.f1, machines)
	sc.f0, sc.f1 = finish, free
	makespan := 0.0
	price := func(id NodeID) {
		node := g.Node(id)
		start := 0.0
		for _, a := range node.Args() {
			if finish[a] > start {
				start = finish[a]
			}
		}
		m := 0
		for i := 1; i < machines; i++ {
			if free[i] < free[m] {
				m = i
			}
		}
		if free[m] > start {
			start = free[m]
		}
		end := start + cost(*node.Op, g.OpWidth(id), len(node.Args()))
		finish[id] = end
		free[m] = end
		if end > makespan {
			makespan = end
		}
	}
	if sched == nil {
		for id := range g.nodes {
			if g.nodes[id].Kind == KindOp && g.Alive(NodeID(id)) {
				price(NodeID(id))
			}
		}
		return makespan
	}
	for _, id := range sched {
		price(id)
	}
	return makespan
}

// ProgramOrder returns the live operation nodes in construction order —
// the unoptimized schedule naive lowering uses. Construction order is a
// valid topological order because arguments always precede their users.
func (g *Graph) ProgramOrder() []NodeID {
	var order []NodeID
	for id := range g.nodes {
		if g.nodes[id].Kind == KindOp && g.Alive(NodeID(id)) {
			order = append(order, NodeID(id))
		}
	}
	return order
}

// Schedule returns the live operation nodes in a cost-driven list
// schedule: each node's priority is its own cost plus the most
// expensive chain of dependents below it (its upward rank), and among
// ready nodes the highest-priority one issues first, ties broken by ID
// for determinism. Critical chains therefore start as early as the
// hazard graph allows, which is what lets the batched engine overlap
// the cheap side chains against them; it also tends to shorten
// intermediate lifetimes on the critical chain, helping slot reuse.
// A nil cost schedules with unit costs.
func (g *Graph) Schedule(cost CostFn) []NodeID {
	if cost == nil {
		cost = func(ops.Def, int, int) float64 { return 1 }
	}
	n := len(g.nodes)
	sc := schedPool.Get().(*schedScratch)
	defer schedPool.Put(sc)
	ownCost, rank := sized(sc.f0, n), sized(sc.f1, n)
	pendingArgs := sized(sc.i0, n) // unscheduled live op arguments
	// users(a), flat[userOff[a]:userOff[a+1]], are the live op nodes
	// reading a, in ascending ID order; a repeated argument is one edge.
	userOff := sized(sc.i1, n+1)
	defer func() { sc.f0, sc.f1, sc.i0, sc.i1 = ownCost, rank, pendingArgs, userOff }()
	edges, live := 0, 0
	for id := 0; id < n; id++ {
		node := &g.nodes[id]
		if node.Kind != KindOp || !g.Alive(NodeID(id)) {
			continue
		}
		live++
		ownCost[id] = cost(*node.Op, g.OpWidth(NodeID(id)), len(node.Args()))
		for k, a := range node.Args() {
			if slices.Contains(node.Args()[:k], a) {
				continue
			}
			userOff[a+1]++
			edges++
			if g.nodes[a].Kind == KindOp && g.Alive(a) {
				pendingArgs[id]++
			}
		}
	}
	for id := 0; id < n; id++ {
		userOff[id+1] += userOff[id]
	}
	// flat holds the edges, then fill (each node's next free edge slot,
	// dead once flat is filled), then the ready list.
	sc.ids = sized(sc.ids, edges+n+live)
	flat, fill, ready := sc.ids[:edges], sc.ids[edges:edges+n], sc.ids[edges+n:edges+n]
	for id := 0; id < n; id++ {
		fill[id] = NodeID(userOff[id])
	}
	for id := 0; id < n; id++ {
		node := &g.nodes[id]
		if node.Kind != KindOp || !g.Alive(NodeID(id)) {
			continue
		}
		for k, a := range node.Args() {
			if !slices.Contains(node.Args()[:k], a) {
				flat[fill[a]] = NodeID(id)
				fill[a]++
			}
		}
	}
	users := func(id NodeID) []NodeID { return flat[userOff[id]:userOff[id+1]] }
	// Upward rank: own cost plus the costliest dependent chain. Users
	// always have higher IDs than their arguments, so one descending
	// sweep resolves every rank.
	for id := n - 1; id >= 0; id-- {
		if g.nodes[id].Kind != KindOp || !g.Alive(NodeID(id)) {
			continue
		}
		best := 0.0
		for _, u := range users(NodeID(id)) {
			if rank[u] > best {
				best = rank[u]
			}
		}
		rank[id] = ownCost[id] + best
	}
	for id := 0; id < n; id++ {
		if g.nodes[id].Kind == KindOp && g.Alive(NodeID(id)) && pendingArgs[id] == 0 {
			ready = append(ready, NodeID(id))
		}
	}
	sched := make([]NodeID, 0, live)
	for len(ready) > 0 {
		pick := 0
		for i := 1; i < len(ready); i++ {
			ri, rp := ready[i], ready[pick]
			if rank[ri] > rank[rp] || (rank[ri] == rank[rp] && ri < rp) {
				pick = i
			}
		}
		id := ready[pick]
		ready = append(ready[:pick], ready[pick+1:]...)
		sched = append(sched, id)
		for _, u := range users(id) {
			pendingArgs[u]--
			if pendingArgs[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	return sched
}

// schedScratch is the working storage of Schedule and
// EstimateMakespanNs — per-node costs and ranks, counters and edge
// lists — recycled through schedPool, so a compile allocates only the
// schedule it returns.
type schedScratch struct {
	f0, f1 []float64
	i0, i1 []int
	ids    []NodeID
}

var schedPool = sync.Pool{New: func() any { return new(schedScratch) }}

// sized returns s resized to n zeroed elements, reusing its backing
// array when it is large enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
