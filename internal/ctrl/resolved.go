package ctrl

import "simdram/internal/uprog"

// template returns p's template for the unit's geometry, cached on the
// program (uprog.Program.TemplateFor). A Prepare binds each segment's
// view from its template into the batch's own slab (see Prepare).
func (u *Unit) template(p *uprog.Program) *uprog.Template {
	return p.TemplateFor(u.mod.Config())
}
