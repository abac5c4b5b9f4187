// Package graph implements the lazy expression-graph compiler behind
// the public Lazy/Materialize facade: a dataflow DAG IR over the
// operation catalog, classic optimization passes (constant folding,
// common-subexpression elimination, dead-node elimination), a
// cost-model-driven list scheduler, a liveness pass that assigns
// intermediates to a small pool of reused temporary-row slots
// (register allocation for subarray rows), and lowering of the
// scheduled DAG to an isa.Program the batched/cluster execution
// engines run.
//
// The package is storage-agnostic: it reasons about node IDs and slot
// indices only. The public facade owns the Vector/ShardedVector
// allocations and resolves nodes to bbop object handles at lowering
// time.
package graph

import (
	"fmt"

	"simdram/internal/ops"
)

// NodeID names one node of a Graph.
type NodeID int

// Kind classifies a node.
type Kind uint8

// Node kinds.
const (
	// KindInput is a leaf bound to caller-provided storage (a Vector or
	// ShardedVector); the compiler never allocates or writes it.
	KindInput Kind = iota
	// KindConst is a scalar constant splatted across all lanes; it
	// materializes as a stored vector, never as DRAM compute.
	KindConst
	// KindOp applies one catalog operation to its argument nodes.
	KindOp
)

// Node is one vertex of the dataflow DAG. Args always refer to
// lower-numbered nodes, so ascending ID order is a topological order —
// a property every pass in this package relies on.
type Node struct {
	Kind  Kind
	Op    ops.Def  // KindOp: the operation applied
	Args  []NodeID // KindOp: operand nodes, operand-major
	Width int      // result element width in bits
	Val   uint64   // KindConst: the splatted value
	Root  bool     // marked as a materialization root
}

// Graph is a dataflow DAG under construction and optimization. Nodes
// are append-only; passes rewrite them in place (folding an op into a
// const), remap references (CSE), or mark them dead (DCE) — IDs handed
// out to the caller stay stable across every pass.
type Graph struct {
	nodes []Node
	roots []NodeID
	dead  []bool
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Len returns the number of nodes ever added (dead ones included).
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// Alive reports whether the node survived dead-node elimination (true
// for every node before DCE runs).
func (g *Graph) Alive(id NodeID) bool {
	return g.dead == nil || !g.dead[id]
}

// Roots returns the root IDs in MarkRoot order. Passes keep each entry
// pointing at the node that computes that root's value, so position i
// always corresponds to the i-th MarkRoot call.
func (g *Graph) Roots() []NodeID { return g.roots }

// Input adds a leaf node of the given width.
func (g *Graph) Input(width int) (NodeID, error) {
	if width < 1 || width > 64 {
		return 0, fmt.Errorf("graph: input width %d out of range [1,64]", width)
	}
	return g.add(Node{Kind: KindInput, Width: width}), nil
}

// Const adds a scalar-constant node of the given width.
func (g *Graph) Const(val uint64, width int) (NodeID, error) {
	if width < 1 || width > 64 {
		return 0, fmt.Errorf("graph: const width %d out of range [1,64]", width)
	}
	return g.add(Node{Kind: KindConst, Val: val & widthMask(width), Width: width}), nil
}

// Op adds an operation node over existing argument nodes, validating
// arity and per-operand widths against the catalog definition and
// computing the result width. The ISA encodes at most 3 source
// operands, so wider fan-in must be expressed as a tree.
func (g *Graph) Op(d ops.Def, args ...NodeID) (NodeID, error) {
	if len(args) == 0 {
		return 0, fmt.Errorf("graph: %s: no arguments", d.Name)
	}
	if len(args) > 3 {
		return 0, fmt.Errorf("graph: %s: ISA encodes at most 3 source operands, have %d", d.Name, len(args))
	}
	if d.Arity >= 0 && len(args) != d.Arity {
		return 0, fmt.Errorf("graph: %s: needs %d arguments, have %d", d.Name, d.Arity, len(args))
	}
	if d.Arity < 0 && len(args) < 2 {
		return 0, fmt.Errorf("graph: %s: N-ary operation needs at least 2 arguments", d.Name)
	}
	for _, a := range args {
		if a < 0 || int(a) >= len(g.nodes) {
			return 0, fmt.Errorf("graph: %s: argument %d is not a node of this graph", d.Name, a)
		}
	}
	w := g.nodes[args[0]].Width
	var want []int // nil: every operand is w bits (ops.Def.SourceWidths)
	if d.SrcWidths != nil {
		want = d.SrcWidths(w)
	}
	for k, a := range args {
		wk := w
		if want != nil {
			wk = want[k]
		}
		if got := g.nodes[a].Width; got != wk {
			return 0, fmt.Errorf("graph: %s: argument %d has width %d, operation expects %d", d.Name, k, got, wk)
		}
	}
	n := Node{Kind: KindOp, Op: d, Args: append([]NodeID(nil), args...), Width: d.DstWidth(w)}
	return g.add(n), nil
}

// MarkRoot marks a node as a materialization root. The same node may be
// marked more than once; each call appends a (possibly repeated) entry.
func (g *Graph) MarkRoot(id NodeID) {
	g.nodes[id].Root = true
	g.roots = append(g.roots, id)
}

func (g *Graph) add(n Node) NodeID {
	g.nodes = append(g.nodes, n)
	return NodeID(len(g.nodes) - 1)
}

// OpWidth returns the operation width of an op node: the width of its
// first operand, the w every catalog definition is parameterized by.
func (g *Graph) OpWidth(id NodeID) int {
	return g.nodes[g.nodes[id].Args[0]].Width
}

// widthMask returns the w-bit mask.
func widthMask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}
