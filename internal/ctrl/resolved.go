package ctrl

import (
	"sync"

	"simdram/internal/dram"
	"simdram/internal/uprog"
)

// maxTemplates bounds the template cache. Programs come from the
// synthesis cache, so a process holds far fewer than this; if a
// pathological workload exceeds it, the whole map is dropped and warms
// back up, which only costs re-resolving.
const maxTemplates = 4096

// templateKey identifies a template: a template depends only on its
// program and the geometry's row map.
type templateKey struct {
	prog *uprog.Program
	rows dram.RowMap
}

// templates caches μProgram templates process-wide, so every unit of
// one geometry — each channel of a Server or Cluster — shares one
// template per program, and binding a placement never resolves a
// program again. A Prepare binds each segment's view from its
// template into the batch's own slab (see Prepare).
var templates struct {
	mu sync.RWMutex
	m  map[templateKey]*uprog.Template
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
	if templates.m == nil || len(templates.m) >= maxTemplates {
		templates.m = make(map[templateKey]*uprog.Template)
	}
	// Last writer wins on a racing double-build: both templates are
	// identical.
	templates.m[key] = t
	templates.mu.Unlock()
	return t
}
