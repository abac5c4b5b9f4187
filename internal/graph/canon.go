package graph

import (
	"strconv"
	"strings"
)

// CanonicalKey serializes the structural shape of the graph — node
// kinds, opcodes, widths, constant values, argument topology, and the
// root sequence — into a string that is identical for two graphs built
// from structurally identical expression DAGs and different otherwise.
// Leaf *identity* is deliberately excluded: an input node contributes
// only its width, so the same request shape over different operand
// vectors (or different request payloads) produces the same key. That
// is exactly the equivalence class a plan cache wants: everything the
// optimization passes, the scheduler, and the slot assigner look at is
// in the key, while everything lowering re-binds per call (which
// storage backs each leaf) is not.
//
// The key is exact, not a digest: using it as a map key can never
// collide two distinct shapes. Call on the freshly built graph, before
// any pass mutates it.
func (g *Graph) CanonicalKey() string {
	var b strings.Builder
	b.Grow(16 * len(g.nodes))
	for i := range g.nodes {
		n := &g.nodes[i]
		switch n.Kind {
		case KindInput:
			b.WriteByte('i')
			b.WriteString(strconv.Itoa(n.Width))
		case KindConst:
			b.WriteByte('c')
			b.WriteString(strconv.FormatUint(n.Val, 16))
			b.WriteByte(':')
			b.WriteString(strconv.Itoa(n.Width))
		case KindOp:
			b.WriteByte('o')
			b.WriteString(strconv.Itoa(int(n.Op.Code)))
			b.WriteByte('(')
			for k, a := range n.Args() {
				if k > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.Itoa(int(a)))
			}
			b.WriteByte(')')
		}
		b.WriteByte(';')
	}
	b.WriteByte('r')
	for k, r := range g.roots {
		if k > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(r)))
	}
	return b.String()
}
