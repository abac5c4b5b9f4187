// Package mig implements majority-inverter graphs (MIGs), the logic
// representation at the core of SIMDRAM's Step 1.
//
// A MIG is a DAG whose every internal node is a three-input majority gate
// and whose edges may be complemented. MAJ plus NOT is functionally
// complete: AND(a,b) = MAJ(a,b,0) and OR(a,b) = MAJ(a,b,1). SIMDRAM
// lowers each operation to an optimized MIG because a MAJ maps to a single
// triple-row activation (AP command) in DRAM while a NOT maps to a copy
// through a dual-contact cell, so MIG size and shape directly determine
// the number of DRAM row activations (package uprog).
//
// Literals (Lit) encode node index and complement bit in one word; the
// graph is hash-consed and nodes are created in topological order.
package mig

import (
	"fmt"
	"sort"
)

// Lit is a reference to a node with an optional complement:
// node index in the high bits, complement flag in bit 0.
type Lit uint32

// Constant literals. Node 0 is the constant-false node.
const (
	ConstFalse Lit = 0
	ConstTrue  Lit = 1
)

// MakeLit builds a literal from a node index and complement flag.
func MakeLit(node int, neg bool) Lit {
	l := Lit(node) << 1
	if neg {
		l |= 1
	}
	return l
}

// Node returns the node index of the literal.
func (l Lit) Node() int { return int(l >> 1) }

// Neg reports whether the literal is complemented.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as e.g. "!n42" or "n7".
func (l Lit) String() string {
	if l == ConstFalse {
		return "0"
	}
	if l == ConstTrue {
		return "1"
	}
	if l.Neg() {
		return fmt.Sprintf("!n%d", l.Node())
	}
	return fmt.Sprintf("n%d", l.Node())
}

// invalidLit marks children of non-MAJ nodes (constant, inputs).
const invalidLit Lit = ^Lit(0)

type node struct {
	a, b, c Lit
}

func (n node) isLeaf() bool { return n.a == invalidLit }

// MIG is a majority-inverter graph. Construct with New; the zero value is
// not usable.
type MIG struct {
	nodes      []node
	numInputs  int
	outputs    []Lit
	outNames   []string
	inputNames []string

	hash map[node]int
}

// New returns a MIG with the given number of primary inputs.
// Input i is available as Input(i).
func New(numInputs int) *MIG {
	m := &MIG{
		numInputs: numInputs,
		hash:      make(map[node]int),
	}
	// Node 0: constant false. Nodes 1..numInputs: inputs.
	m.nodes = append(m.nodes, node{invalidLit, invalidLit, invalidLit})
	for i := 0; i < numInputs; i++ {
		m.nodes = append(m.nodes, node{invalidLit, invalidLit, invalidLit})
		m.inputNames = append(m.inputNames, fmt.Sprintf("x%d", i))
	}
	return m
}

// NumInputs returns the number of primary inputs.
func (m *MIG) NumInputs() int { return m.numInputs }

// NumNodes returns the total node count including constant and inputs.
func (m *MIG) NumNodes() int { return len(m.nodes) }

// Size returns the number of MAJ nodes (the metric SIMDRAM Step 1
// minimizes, since each MAJ costs one triple-row activation).
func (m *MIG) Size() int { return len(m.nodes) - 1 - m.numInputs }

// Input returns the literal for primary input i.
func (m *MIG) Input(i int) Lit {
	if i < 0 || i >= m.numInputs {
		panic(fmt.Sprintf("mig: input %d out of range [0,%d)", i, m.numInputs))
	}
	return MakeLit(1+i, false)
}

// SetInputName attaches a debug name to input i.
func (m *MIG) SetInputName(i int, name string) { m.inputNames[i] = name }

// IsInput reports whether node idx is a primary input.
func (m *MIG) IsInput(idx int) bool { return idx >= 1 && idx <= m.numInputs }

// IsConst reports whether node idx is the constant node.
func (m *MIG) IsConst(idx int) bool { return idx == 0 }

// Children returns the three child literals of MAJ node idx.
func (m *MIG) Children(idx int) (a, b, c Lit) {
	n := m.nodes[idx]
	if n.isLeaf() {
		panic(fmt.Sprintf("mig: node %d is a leaf", idx))
	}
	return n.a, n.b, n.c
}

// Maj returns a literal computing MAJ(a, b, c), applying the Ω.M majority
// axiom, complement cancellation, and structural hashing. The node set
// only grows; unreferenced nodes are removed by Compact.
func (m *MIG) Maj(a, b, c Lit) Lit {
	// Ω.M: MAJ(x,x,y) = x and MAJ(x,!x,y) = y.
	if a == b {
		return a
	}
	if a == c {
		return a
	}
	if b == c {
		return b
	}
	if a == b.Not() {
		return c
	}
	if a == c.Not() {
		return b
	}
	if b == c.Not() {
		return a
	}
	// Canonical order.
	ls := [3]Lit{a, b, c}
	sort.Slice(ls[:], func(i, j int) bool { return ls[i] < ls[j] })
	a, b, c = ls[0], ls[1], ls[2]
	// Self-duality: MAJ(!a,!b,!c) = !MAJ(a,b,c). Canonicalize so that at
	// most one child is complemented... full canonicalization needs the
	// 2-complement case too: with exactly two complements we keep as-is
	// (no identity applies); with three we flip all and complement output.
	if a.Neg() && b.Neg() && c.Neg() {
		return m.Maj(a.Not(), b.Not(), c.Not()).Not()
	}
	key := node{a, b, c}
	if idx, ok := m.hash[key]; ok {
		return MakeLit(idx, false)
	}
	idx := len(m.nodes)
	m.nodes = append(m.nodes, key)
	m.hash[key] = idx
	return MakeLit(idx, false)
}

// And returns a AND b as MAJ(a, b, 0).
func (m *MIG) And(a, b Lit) Lit { return m.Maj(a, b, ConstFalse) }

// Or returns a OR b as MAJ(a, b, 1).
func (m *MIG) Or(a, b Lit) Lit { return m.Maj(a, b, ConstTrue) }

// Xor returns a XOR b using the standard 3-MAJ template
// AND(OR(a,b), NAND(a,b)).
func (m *MIG) Xor(a, b Lit) Lit {
	or := m.Or(a, b)
	nand := m.And(a, b).Not()
	return m.And(or, nand)
}

// Xor3 returns a XOR b XOR c using the full-adder sum template
// S = MAJ(!MAJ(a,b,c), MAJ(a,b,!c), c), which costs 3 MAJ nodes and
// shares MAJ(a,b,c) with a ripple carry chain when one is present.
func (m *MIG) Xor3(a, b, c Lit) Lit {
	carry := m.Maj(a, b, c)
	t := m.Maj(a, b, c.Not())
	return m.Maj(carry.Not(), t, c)
}

// Mux returns sel ? t : f as OR(AND(sel,t), AND(!sel,f)).
func (m *MIG) Mux(sel, t, f Lit) Lit {
	if t == f {
		return t
	}
	return m.Or(m.And(sel, t), m.And(sel.Not(), f))
}

// AddOutput declares lit as the next primary output.
func (m *MIG) AddOutput(lit Lit, name string) {
	m.outputs = append(m.outputs, lit)
	m.outNames = append(m.outNames, name)
}

// Outputs returns the declared output literals.
func (m *MIG) Outputs() []Lit { return m.outputs }

// Depth returns the number of MAJ levels on the longest path to an output.
func (m *MIG) Depth() int {
	depth := make([]int, len(m.nodes))
	for i, n := range m.nodes {
		if n.isLeaf() {
			continue
		}
		d := depth[n.a.Node()]
		if x := depth[n.b.Node()]; x > d {
			d = x
		}
		if x := depth[n.c.Node()]; x > d {
			d = x
		}
		depth[i] = d + 1
	}
	max := 0
	for _, o := range m.outputs {
		if d := depth[o.Node()]; d > max {
			max = d
		}
	}
	return max
}

// FanoutCounts returns, for each node, how many MAJ fanins and outputs
// reference it (ignoring complement flags).
func (m *MIG) FanoutCounts() []int {
	fo := make([]int, len(m.nodes))
	for _, n := range m.nodes {
		if n.isLeaf() {
			continue
		}
		fo[n.a.Node()]++
		fo[n.b.Node()]++
		fo[n.c.Node()]++
	}
	for _, o := range m.outputs {
		fo[o.Node()]++
	}
	return fo
}

// InverterCount returns the number of complemented edges reachable in the
// graph (complemented MAJ fanins plus complemented outputs). Each costs a
// copy through a dual-contact cell unless the codegen can reuse one.
func (m *MIG) InverterCount() int {
	n := 0
	for _, nd := range m.nodes {
		if nd.isLeaf() {
			continue
		}
		for _, l := range [3]Lit{nd.a, nd.b, nd.c} {
			if l.Neg() && l != ConstTrue {
				n++
			}
		}
	}
	for _, o := range m.outputs {
		if o.Neg() && o != ConstTrue {
			n++
		}
	}
	return n
}

// Compact rebuilds the graph keeping only nodes reachable from outputs.
// Node indices change; outputs are remapped. Returns the number of nodes
// removed.
func (m *MIG) Compact() int {
	reach := make([]bool, len(m.nodes))
	var mark func(idx int)
	mark = func(idx int) {
		if reach[idx] {
			return
		}
		reach[idx] = true
		n := m.nodes[idx]
		if n.isLeaf() {
			return
		}
		mark(n.a.Node())
		mark(n.b.Node())
		mark(n.c.Node())
	}
	for _, o := range m.outputs {
		mark(o.Node())
	}
	// Constant and inputs always stay.
	for i := 0; i <= m.numInputs; i++ {
		reach[i] = true
	}
	removed := 0
	remap := make([]int, len(m.nodes))
	newNodes := m.nodes[:0:0]
	newHash := make(map[node]int)
	for i, n := range m.nodes {
		if !reach[i] {
			removed++
			remap[i] = -1
			continue
		}
		var nn node
		if n.isLeaf() {
			nn = n
		} else {
			nn = node{
				remapLit(n.a, remap),
				remapLit(n.b, remap),
				remapLit(n.c, remap),
			}
		}
		remap[i] = len(newNodes)
		newNodes = append(newNodes, nn)
		if !nn.isLeaf() {
			newHash[nn] = remap[i]
		}
	}
	for i, o := range m.outputs {
		m.outputs[i] = remapLit(o, remap)
	}
	m.nodes = newNodes
	m.hash = newHash
	return removed
}

func remapLit(l Lit, remap []int) Lit {
	return MakeLit(remap[l.Node()], l.Neg())
}

// String summarizes the graph.
func (m *MIG) String() string {
	return fmt.Sprintf("mig{inputs=%d outputs=%d size=%d depth=%d inverters=%d}",
		m.numInputs, len(m.outputs), m.Size(), m.Depth(), m.InverterCount())
}
