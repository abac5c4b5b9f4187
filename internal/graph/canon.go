package graph

import (
	"strconv"
	"sync"
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
// any pass mutates it. The key starts with prefix (a caller's own
// qualifier, such as compile options) and is built in recycled storage,
// so the string is its only allocation.
func (g *Graph) CanonicalKey(prefix string) string {
	bp := keyPool.Get().(*[]byte)
	defer keyPool.Put(bp)
	b := append((*bp)[:0], prefix...)
	for i := range g.nodes {
		n := &g.nodes[i]
		switch n.Kind {
		case KindInput:
			b = append(b, 'i')
			b = strconv.AppendInt(b, int64(n.Width), 10)
		case KindConst:
			b = append(b, 'c')
			b = strconv.AppendUint(b, n.Val, 16)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(n.Width), 10)
		case KindOp:
			b = append(b, 'o')
			b = strconv.AppendInt(b, int64(n.Op.Code), 10)
			b = append(b, '(')
			for k, a := range n.Args() {
				if k > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(a), 10)
			}
			b = append(b, ')')
		}
		b = append(b, ';')
	}
	b = append(b, 'r')
	for k, r := range g.roots {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(r), 10)
	}
	*bp = b
	return string(b)
}

// keyPool recycles CanonicalKey's byte buffers.
var keyPool = sync.Pool{New: func() any { return new([]byte) }}
