package ctrl

import (
	"sync"

	"simdram/internal/dram"
	"simdram/internal/uprog"
)

// viewKey identifies a placement for view caching: a (μProgram,
// binding) pair on one subarray. Programs come from the synthesis cache
// and are immutable, so pointer identity is a sound program key; the
// binding flattens to at most three source bases because the ISA
// encodes at most three source objects — bindings with more sources
// bypass the cache.
type viewKey struct {
	prog        *uprog.Program
	bank, sub   int
	nSrc        int
	src         [3]int
	dstBase     int
	scratchBase int
}

// maxViews bounds a Unit's view cache, and separately the template
// cache. A served system cycles through far fewer placements than
// this; if a pathological workload exceeds it, the whole map is
// dropped and warms back up, which only costs re-binding.
const maxViews = 4096

// templateKey identifies a template: a template depends only on its
// program and the geometry's row map.
type templateKey struct {
	prog *uprog.Program
	rows dram.RowMap
}

// templates caches μProgram templates process-wide, so every unit of
// one geometry — each channel of a Server or Cluster — shares one
// template per program. Programs come from the synthesis cache, which
// never drops them, so the map stays as small as the set of
// synthesized programs.
var templates struct {
	mu sync.RWMutex
	m  map[templateKey]*uprog.Template
}

// viewCache holds the views that bind μProgram templates to a Unit's
// placements.
//
// Binding a template costs one binding validation and one row table,
// so the views are cached as well: the server prepares every job, even
// on a plan-cache hit, and a Prepare finds repeated placements here
// with one read-locked map hit on a stack-allocated key — zero heap
// allocations — never consulting the template. A view holds a row
// slice header per virtual row of one subarray (about 1.1 KB for an
// 8-bit addition, against 4.4 KB for its resolved stream).
type viewCache struct {
	mu    sync.RWMutex
	views map[viewKey]*uprog.View
}

// view returns the cached view of p at seg's placement, binding p's
// template and caching the view on first use. Bindings with more than
// three source operands (impossible through the ISA) bind uncached.
func (u *Unit) view(p *uprog.Program, seg Segment) (*uprog.View, error) {
	b := seg.Binding
	if len(b.SrcBase) > 3 {
		return u.template(p).Bind(u.mod.Subarray(seg.Bank, seg.Sub), b)
	}
	key := viewKey{prog: p, bank: seg.Bank, sub: seg.Sub, nSrc: len(b.SrcBase), dstBase: b.DstBase, scratchBase: b.ScratchBase}
	copy(key.src[:], b.SrcBase)
	u.vc.mu.RLock()
	v := u.vc.views[key]
	u.vc.mu.RUnlock()
	if v != nil {
		return v, nil
	}
	v, err := u.template(p).Bind(u.mod.Subarray(seg.Bank, seg.Sub), b)
	if err != nil {
		return nil, err
	}
	u.vc.mu.Lock()
	if u.vc.views == nil || len(u.vc.views) >= maxViews {
		u.vc.views = make(map[viewKey]*uprog.View)
	}
	// Last writer wins on a racing double-bind: both views are
	// identical, so either pointer is fine for every waiter.
	u.vc.views[key] = v
	u.vc.mu.Unlock()
	return v, nil
}

// template returns p's template for the unit's geometry, building and
// caching it on first use.
func (u *Unit) template(p *uprog.Program) *uprog.Template {
	cfg := u.mod.Config()
	key := templateKey{prog: p, rows: cfg.RowMap()}
	templates.mu.RLock()
	t := templates.m[key]
	templates.mu.RUnlock()
	if t != nil {
		return t
	}
	t = uprog.NewTemplate(p, cfg)
	templates.mu.Lock()
	if templates.m == nil || len(templates.m) >= maxViews {
		templates.m = make(map[templateKey]*uprog.Template)
	}
	// Last writer wins on a racing double-build: both templates are
	// identical.
	templates.m[key] = t
	templates.mu.Unlock()
	return t
}

// ViewCacheSize reports the number of cached placement views.
func (u *Unit) ViewCacheSize() int {
	u.vc.mu.RLock()
	defer u.vc.mu.RUnlock()
	return len(u.vc.views)
}
