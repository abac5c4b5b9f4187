package graph

import "simdram/internal/ops"

// FoldConstants rewrites every operation node whose arguments are all
// constants into a constant node holding the operation's golden result,
// and returns how many nodes folded. Folding iterates in topological
// (ID) order, so chains of constant operations collapse in one pass.
// A folded constant costs a splat store instead of a DRAM compute
// instruction plus a temporary.
func (g *Graph) FoldConstants() int {
	folded := 0
	for id := range g.nodes {
		n := &g.nodes[id]
		if n.Kind != KindOp || !g.Alive(NodeID(id)) {
			continue
		}
		allConst := true
		for _, a := range n.Args() {
			if g.nodes[a].Kind != KindConst {
				allConst = false
				break
			}
		}
		if !allConst {
			continue
		}
		vals := make([]uint64, len(n.Args()))
		for k, a := range n.Args() {
			vals[k] = g.nodes[a].Val
		}
		val := n.Op.Golden(vals, g.OpWidth(NodeID(id)))
		*n = Node{Kind: KindConst, Val: val & widthMask(n.Width), Width: n.Width, Root: n.Root}
		folded++
	}
	return folded
}

// cseKey is a node's structural identity for CSE: the constant (value
// and width) or the operation over its canonicalized arguments. Op
// nodes have at most three arguments (Graph.Op enforces the ISA's
// limit); n tells a short argument list from one padded with node 0.
type cseKey struct {
	kind  Kind
	code  ops.Code
	val   uint64
	width int
	n     int
	args  [3]NodeID
}

// CSE merges structurally identical nodes — same constant, or same
// operation over the same (already canonicalized) arguments — onto
// their first occurrence, and returns how many nodes it eliminated.
// Input nodes are never merged: distinct leaves are distinct storage
// even when their widths agree. Merged duplicates stay in the node
// table but lose all references; DCE retires them.
func (g *Graph) CSE() int {
	repl := make([]NodeID, len(g.nodes))
	for i := range repl {
		repl[i] = NodeID(i)
	}
	canon := make(map[cseKey]NodeID, len(g.nodes))
	merged := 0
	for id := range g.nodes {
		n := &g.nodes[id]
		for k, a := range n.Args() {
			n.Args()[k] = repl[a]
		}
		key := cseKey{kind: n.Kind, width: n.Width}
		switch n.Kind {
		case KindConst:
			key.val = n.Val
		case KindOp:
			key.code, key.n = n.Op.Code, len(n.Args())
			copy(key.args[:], n.Args())
		default:
			continue // inputs are never merged
		}
		if first, ok := canon[key]; ok {
			repl[id] = first
			if n.Root {
				// The canonical node takes over the root role; the
				// duplicate must drop it, or — when DCE is skipped — it
				// would schedule as a root without result storage.
				g.nodes[first].Root = true
				n.Root = false
			}
			merged++
			continue
		}
		canon[key] = NodeID(id)
	}
	for i, r := range g.roots {
		g.roots[i] = repl[r]
	}
	return merged
}

// DCE marks every node unreachable from the roots as dead and returns
// how many operation and constant nodes it retired. Dead inputs are
// marked too (so the facade skips binding them) but not counted — they
// cost the compiled program nothing.
func (g *Graph) DCE() int {
	live := make([]bool, len(g.nodes))
	var mark func(id NodeID)
	mark = func(id NodeID) {
		if live[id] {
			return
		}
		live[id] = true
		for _, a := range g.nodes[id].Args() {
			mark(a)
		}
	}
	for _, r := range g.roots {
		mark(r)
	}
	g.dead = make([]bool, len(g.nodes))
	removed := 0
	for id := range g.nodes {
		if live[id] {
			continue
		}
		g.dead[id] = true
		if g.nodes[id].Kind != KindInput {
			removed++
		}
	}
	return removed
}
