// Profile-guided plan management: each plan-cache entry aggregates the
// per-op latencies the batch engine actually measured for its shape,
// and the cache decides when those measurements have diverged far
// enough from the static cost model that the shape's plan should be
// recompiled with observed costs (cf. Liu et al., "From Profiling to
// Optimization"). Ops are priced by (opcode, width, arity), the same
// triple the static cost model uses.
package graph

import (
	"slices"

	"simdram/internal/ops"
)

// OpKey identifies one operation class inside a shape's profile: the
// opcode, the operation width, and the operand count — the same triple
// the static cost model (ops.CostNs) prices an instruction by.
type OpKey struct {
	Code  ops.Code
	Width int
	N     int
}

// OpKeyOf returns the profile key of a scheduled operation node.
func (g *Graph) OpKeyOf(id NodeID) OpKey {
	n := g.Node(id)
	return OpKey{Code: n.Op.Code, Width: g.OpWidth(id), N: len(n.Args())}
}

// opAgg accumulates the observations for one op class of one shape.
type opAgg struct {
	key     OpKey
	sumNs   float64
	count   int
	modelNs float64 // what the static cost model predicted, for divergence
}

// meanNs returns the mean observed latency.
func (a *opAgg) meanNs() float64 { return a.sumNs / float64(a.count) }

// profile aggregates the measured per-op latencies of every executed
// job of one cached shape.
type profile struct {
	jobs       int
	ops        []opAgg // one per op class, in first-seen order
	recompiled bool    // the recompile this profile asked for was claimed
}

// record folds one job's per-op latencies, aligned with plan.Sched,
// into the profile; model prices an op class on its first observation.
func (p *profile) record(plan *Plan, opNs []float64, model CostFn) {
	g := plan.Graph
	if p.ops == nil {
		// Every plan of a shape has the same op classes: size the
		// aggregates once, for exactly those.
		var buf [32]OpKey
		keys := buf[:0]
		for _, id := range plan.Sched {
			if k := g.OpKeyOf(id); !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
		p.ops = make([]opAgg, 0, len(keys))
	}
	for i, id := range plan.Sched {
		a := p.agg(g, id, model)
		a.sumNs += opNs[i]
		a.count++
	}
	p.jobs++
}

// agg returns the aggregate of node id's op class, adding it (priced
// by model) on the class's first observation. A shape has a handful
// of op classes, so a scan beats hashing the key.
func (p *profile) agg(g *Graph, id NodeID, model CostFn) *opAgg {
	k := g.OpKeyOf(id)
	for i := range p.ops {
		if p.ops[i].key == k {
			return &p.ops[i]
		}
	}
	p.ops = append(p.ops, opAgg{key: k, modelNs: model(*g.Node(id).Op, k.Width, k.N)})
	return &p.ops[len(p.ops)-1]
}

// diverged reports whether any op class's mean observed latency is
// more than threshold (relative) away from the static model's
// prediction.
func (p *profile) diverged(threshold float64) bool {
	for i := range p.ops {
		a := &p.ops[i]
		if a.count == 0 {
			continue
		}
		mean := a.meanNs()
		if a.modelNs <= 0 {
			if mean > 0 {
				return true
			}
			continue
		}
		rel := (mean - a.modelNs) / a.modelNs
		if rel < 0 {
			rel = -rel
		}
		if rel > threshold {
			return true
		}
	}
	return false
}

// scheduleCost returns a cost function that prices observed op
// classes at their mean measured latency and everything else with
// base — or base itself when nothing was observed. The means are
// copied, so the function stays valid while further jobs record.
func (p *profile) scheduleCost(base CostFn) CostFn {
	if len(p.ops) == 0 {
		return base
	}
	observed := make([]opMean, len(p.ops))
	for i := range p.ops {
		observed[i] = opMean{key: p.ops[i].key, ns: p.ops[i].meanNs()}
	}
	return func(d ops.Def, width, n int) float64 {
		k := OpKey{Code: d.Code, Width: width, N: n}
		for _, o := range observed {
			if o.key == k {
				return o.ns
			}
		}
		return base(d, width, n)
	}
}

// opMean is one op class's mean observed latency.
type opMean struct {
	key OpKey
	ns  float64
}

// ProfileStats is a point-in-time snapshot of a PlanCache's profile
// feedback.
type ProfileStats struct {
	// Shapes is the number of cached shapes with at least one recorded
	// job.
	Shapes int
	// Jobs is the total executed jobs folded into profiles.
	Jobs uint64
	// Recompiles counts profile-guided plan rebuilds claimed through
	// TakeRecompile — at most one per cached shape.
	Recompiles uint64
}

// Record folds one executed job into the profile of key's cache entry:
// opNs[i] is the modeled latency of the i-th scheduled instruction
// (aligned with plan.Sched — the durations its prepared program was
// scheduled with), and model prices the same instruction under the
// static cost model. plan is the plan the job ran, which a recompile
// may since have replaced. A shape with no entry (evicted, or a
// disabled cache), feedback turned off, or opNs not aligned with
// plan.Sched records nothing.
func (c *PlanCache) Record(key string, plan *Plan, opNs []float64, model CostFn) {
	if c.disabled() || c.threshold < 0 || plan == nil || model == nil || len(opNs) != len(plan.Sched) || len(opNs) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		e.prof.record(plan, opNs, model)
		c.jobs++
	}
}

// TakeRecompile reports whether key's measured profile has diverged
// from the static cost model far enough to justify a recompile, and
// atomically claims the recompile: exactly one caller observes true
// per cached shape, so concurrent jobs of the same shape cannot
// stampede the compile pipeline.
func (c *PlanCache) TakeRecompile(key string) bool {
	if c.disabled() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.prof.recompiled || e.prof.jobs < c.minJobs || !e.prof.diverged(c.threshold) {
		return false
	}
	e.prof.recompiled = true
	c.recompiles++
	return true
}

// ScheduleCost returns the cost function a profile-guided recompile of
// key schedules with: op classes with observations are priced at their
// mean measured latency, everything else falls back to base. A shape
// without observations gets base itself.
func (c *PlanCache) ScheduleCost(key string, base CostFn) CostFn {
	if c.disabled() {
		return base
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		return e.prof.scheduleCost(base)
	}
	return base
}

// Jobs returns how many executed jobs have been folded into key's
// profile (0 for shapes the cache does not hold).
func (c *PlanCache) Jobs(key string) int {
	if c.disabled() {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		return e.prof.jobs
	}
	return 0
}

// ProfileStats returns a snapshot of the profile-feedback counters. A
// disabled cache reports the zero value.
func (c *PlanCache) ProfileStats() ProfileStats {
	if c.disabled() {
		return ProfileStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ProfileStats{Jobs: c.jobs, Recompiles: c.recompiles}
	for _, e := range c.entries {
		if e.prof.jobs > 0 {
			st.Shapes++
		}
	}
	return st
}
