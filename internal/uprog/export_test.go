package uprog

// Lowered reports whether a template's plan was lowered: whether no
// op of its program writes a source row.
func Lowered(t *Template) bool { return !writesRowBelow(t.Ops, t.dst) }
