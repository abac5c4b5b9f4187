// Profile-guided plan management: ShapeProfile aggregates the per-op
// latencies the batch engine actually measured for one plan-cache
// shape, and ProfileStore decides when those measurements have
// diverged far enough from the static cost model that the shape's
// plan should be recompiled with observed costs (cf. Liu et al.,
// "From Profiling to Optimization"). The store is storage-agnostic
// like the rest of the package: it keys shapes by the same canonical
// key the plan cache uses and prices ops by (opcode, width, arity).
package graph

import (
	"container/heap"
	"sync"

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
	return OpKey{Code: n.Op.Code, Width: g.OpWidth(id), N: len(n.Args)}
}

// opAgg accumulates the observations for one op class of one shape.
type opAgg struct {
	def     ops.Def
	sumNs   float64
	count   int
	modelNs float64 // what the static cost model predicted, for divergence
}

// meanNs returns the mean observed latency.
func (a *opAgg) meanNs() float64 { return a.sumNs / float64(a.count) }

// ShapeProfile aggregates the measured per-op latencies of every
// executed job of one shape.
type ShapeProfile struct {
	key        string
	jobs       int
	ops        map[OpKey]*opAgg
	recompiled bool // a plan built from this profile is already live
	idx        int  // position in the store's eviction heap
}

// diverged reports whether any op class's mean observed latency is
// more than threshold (relative) away from the static model's
// prediction.
func (p *ShapeProfile) diverged(threshold float64) bool {
	for _, a := range p.ops {
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

// ProfileStats is a point-in-time snapshot of a ProfileStore.
type ProfileStats struct {
	// Shapes is the number of shapes with at least one recorded job.
	Shapes int
	// Jobs is the total executed jobs folded into profiles.
	Jobs uint64
	// Recompiles counts profile-guided plan rebuilds claimed through
	// TakeRecompile — at most one per shape until its profile is reset.
	Recompiles uint64
}

// ProfileStore aggregates ShapeProfiles keyed by plan-cache shape key
// and arbitrates profile-guided recompiles. All methods are safe for
// concurrent use and safe on a nil receiver (a nil store records
// nothing and never asks for a recompile), so callers can thread an
// optional store without guards.
type ProfileStore struct {
	mu        sync.Mutex
	threshold float64
	minJobs   int
	cap       int
	shapes    map[string]*ShapeProfile
	cold      coldHeap // every retained shape, coldest first

	jobs       uint64
	recompiles uint64
}

// NewProfileStore returns a store that flags a shape for recompilation
// once at least minJobs executed jobs have been folded into its
// profile and some op class's mean measured latency diverges from the
// static model by more than threshold (relative). capShapes bounds the
// number of shapes retained; beyond it the shape with the fewest
// recorded jobs is dropped. A threshold < 0 disables the store (nil is
// returned).
func NewProfileStore(threshold float64, minJobs, capShapes int) *ProfileStore {
	if threshold < 0 {
		return nil
	}
	if minJobs < 1 {
		minJobs = 1
	}
	if capShapes < 1 {
		capShapes = 1
	}
	return &ProfileStore{
		threshold: threshold,
		minJobs:   minJobs,
		cap:       capShapes,
		shapes:    make(map[string]*ShapeProfile),
	}
}

// Record folds one executed job into the shape's profile: opNs[i] is
// the measured latency of the i-th scheduled instruction (aligned with
// plan.Sched — what the batch engine reported for the lowered
// program), and model prices the same instruction under the static
// cost model. A length mismatch (e.g. a cluster execution that could
// not attribute per-op timings) records nothing.
func (s *ProfileStore) Record(key string, plan *Plan, opNs []float64, model CostFn) {
	if s == nil || plan == nil || model == nil || len(opNs) != len(plan.Sched) || len(opNs) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.shapes[key]
	if p == nil {
		if len(s.shapes) >= s.cap {
			s.dropColdestLocked()
		}
		p = &ShapeProfile{key: key, ops: make(map[OpKey]*opAgg)}
		s.shapes[key] = p
		heap.Push(&s.cold, p)
	}
	g := plan.Graph
	for i, id := range plan.Sched {
		k := g.OpKeyOf(id)
		a := p.ops[k]
		if a == nil {
			n := g.Node(id)
			a = &opAgg{def: n.Op, modelNs: model(n.Op, k.Width, k.N)}
			p.ops[k] = a
		}
		a.sumNs += opNs[i]
		a.count++
	}
	p.jobs++
	heap.Fix(&s.cold, p.idx)
	s.jobs++
}

// dropColdestLocked evicts the retained shape with the fewest recorded
// jobs (ties: smallest key, for determinism). Caller holds mu.
func (s *ProfileStore) dropColdestLocked() {
	delete(s.shapes, heap.Pop(&s.cold).(*ShapeProfile).key)
}

// coldHeap orders shapes by (jobs, key): its root is the shape
// dropColdestLocked evicts. Keys are unique, so the order is total and
// the root is exactly the one a scan for the fewest jobs, then the
// smallest key, would pick.
type coldHeap []*ShapeProfile

func (h coldHeap) Len() int { return len(h) }
func (h coldHeap) Less(i, j int) bool {
	if h[i].jobs != h[j].jobs {
		return h[i].jobs < h[j].jobs
	}
	return h[i].key < h[j].key
}
func (h coldHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *coldHeap) Push(x any) {
	p := x.(*ShapeProfile)
	p.idx = len(*h)
	*h = append(*h, p)
}
func (h *coldHeap) Pop() any {
	old := *h
	p := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return p
}

// TakeRecompile reports whether the shape's measured profile has
// diverged from the static cost model far enough to justify a
// recompile, and atomically claims the recompile: exactly one caller
// observes true per diverged shape, so concurrent jobs of the same
// shape cannot stampede the compile pipeline.
func (s *ProfileStore) TakeRecompile(key string) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.shapes[key]
	if p == nil || p.recompiled || p.jobs < s.minJobs || !p.diverged(s.threshold) {
		return false
	}
	p.recompiled = true
	s.recompiles++
	return true
}

// ScheduleCost returns the cost function a profile-guided recompile
// schedules with: op classes with observations are priced at their
// mean measured latency, everything else falls back to base. The
// observed means are snapshotted under the lock, so the returned
// function is safe to use while further jobs keep recording. A shape
// without observations gets base itself.
func (s *ProfileStore) ScheduleCost(key string, base CostFn) CostFn {
	if s == nil {
		return base
	}
	var observed map[OpKey]float64
	s.mu.Lock()
	if p := s.shapes[key]; p != nil {
		for k, a := range p.ops {
			if a.count > 0 {
				if observed == nil {
					observed = make(map[OpKey]float64, len(p.ops))
				}
				observed[k] = a.meanNs()
			}
		}
	}
	s.mu.Unlock()
	if observed == nil {
		return base
	}
	return func(d ops.Def, width, n int) float64 {
		if ns, ok := observed[OpKey{Code: d.Code, Width: width, N: n}]; ok {
			return ns
		}
		return base(d, width, n)
	}
}

// Jobs returns how many executed jobs have been folded into the
// shape's profile (0 for unknown shapes or a nil store).
func (s *ProfileStore) Jobs(key string) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.shapes[key]; p != nil {
		return p.jobs
	}
	return 0
}

// Stats returns a snapshot of the store's counters. A nil store
// reports the zero value.
func (s *ProfileStore) Stats() ProfileStats {
	if s == nil {
		return ProfileStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return ProfileStats{Shapes: len(s.shapes), Jobs: s.jobs, Recompiles: s.recompiles}
}
