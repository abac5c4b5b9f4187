// Package logic provides a gate-level intermediate representation for
// combinational circuits. It is the front end of the SIMDRAM framework:
// every SIMDRAM operation is first described as a Circuit built from
// AND/OR/XOR/NOT/MAJ/MUX gates, then lowered to a majority-inverter graph
// (package mig) and finally to a DRAM μProgram (package uprog).
//
// Circuits are directed acyclic graphs with structural hashing: building
// the same gate twice returns the same node. Evaluation is bit-parallel
// over 64-lane words, mirroring the SIMD execution model of the DRAM
// substrate where each bitline is one lane.
package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Kind identifies the function a node computes.
type Kind uint8

// Node kinds. Input and Const are leaves; all others are gates.
const (
	KindInput Kind = iota
	KindConst
	KindNot
	KindAnd
	KindOr
	KindXor
	KindMaj // three-input majority
	KindMux // Fanins[0] ? Fanins[1] : Fanins[2]
)

// String returns the lowercase mnemonic of the kind.
func (k Kind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindConst:
		return "const"
	case KindNot:
		return "not"
	case KindAnd:
		return "and"
	case KindOr:
		return "or"
	case KindXor:
		return "xor"
	case KindMaj:
		return "maj"
	case KindMux:
		return "mux"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// arity returns the required fanin count for a kind, or -1 if variadic.
func (k Kind) arity() int {
	switch k {
	case KindInput, KindConst:
		return 0
	case KindNot:
		return 1
	case KindAnd, KindOr, KindXor:
		return -1 // 2 or more
	case KindMaj, KindMux:
		return 3
	default:
		return -1
	}
}

// Node is one vertex of a Circuit. Nodes are identified by their index in
// Circuit.Nodes; fanins reference earlier indices only (topological order
// is an invariant maintained by the builder).
type Node struct {
	Kind   Kind
	Fanins []int
	Value  bool   // constant value, only for KindConst
	Name   string // optional, for inputs and debugging
}

// Circuit is a combinational gate network. The zero value is not usable;
// construct circuits with New.
type Circuit struct {
	Nodes   []Node
	Inputs  []int // node indices of inputs, in declaration order
	Outputs []int // node indices of outputs, in declaration order

	OutputNames []string

	hash map[gateKey]int
}

type gateKey struct {
	kind   Kind
	fanins string
}

// New returns an empty circuit ready for building.
func New() *Circuit {
	return &Circuit{hash: make(map[gateKey]int)}
}

// Input declares a new primary input and returns its node index.
func (c *Circuit) Input(name string) int {
	idx := len(c.Nodes)
	c.Nodes = append(c.Nodes, Node{Kind: KindInput, Name: name})
	c.Inputs = append(c.Inputs, idx)
	return idx
}

// InputBus declares width inputs named name[0..width-1], LSB first.
func (c *Circuit) InputBus(name string, width int) []int {
	bus := make([]int, width)
	for i := range bus {
		bus[i] = c.Input(fmt.Sprintf("%s[%d]", name, i))
	}
	return bus
}

// Const returns the node index of the constant v. Constants are shared.
func (c *Circuit) Const(v bool) int {
	key := gateKey{kind: KindConst, fanins: fmt.Sprintf("%t", v)}
	if idx, ok := c.hash[key]; ok {
		return idx
	}
	idx := len(c.Nodes)
	c.Nodes = append(c.Nodes, Node{Kind: KindConst, Value: v})
	c.hash[key] = idx
	return idx
}

// gate adds (or reuses) a gate node of the given kind over fanins.
// Commutative kinds are canonicalized by sorting fanins.
func (c *Circuit) gate(kind Kind, fanins ...int) int {
	for _, f := range fanins {
		if f < 0 || f >= len(c.Nodes) {
			panic(fmt.Sprintf("logic: fanin %d out of range (have %d nodes)", f, len(c.Nodes)))
		}
	}
	canon := append([]int(nil), fanins...)
	switch kind {
	case KindAnd, KindOr, KindXor, KindMaj:
		sort.Ints(canon)
	}
	var sb strings.Builder
	for _, f := range canon {
		fmt.Fprintf(&sb, "%d,", f)
	}
	key := gateKey{kind: kind, fanins: sb.String()}
	if idx, ok := c.hash[key]; ok {
		return idx
	}
	idx := len(c.Nodes)
	c.Nodes = append(c.Nodes, Node{Kind: kind, Fanins: canon})
	c.hash[key] = idx
	return idx
}

// Not returns !a, folding double negation and constants.
func (c *Circuit) Not(a int) int {
	n := c.Nodes[a]
	switch n.Kind {
	case KindNot:
		return n.Fanins[0]
	case KindConst:
		return c.Const(!n.Value)
	}
	return c.gate(KindNot, a)
}

// And returns the conjunction of args (at least one), folding constants
// and idempotence for the two-input case.
func (c *Circuit) And(args ...int) int {
	return c.nary(KindAnd, args)
}

// Or returns the disjunction of args (at least one).
func (c *Circuit) Or(args ...int) int {
	return c.nary(KindOr, args)
}

// Xor returns the exclusive-or of args (at least one).
func (c *Circuit) Xor(args ...int) int {
	return c.nary(KindXor, args)
}

func (c *Circuit) nary(kind Kind, args []int) int {
	if len(args) == 0 {
		panic("logic: n-ary gate with no fanins")
	}
	if len(args) == 1 {
		return args[0]
	}
	if len(args) == 2 {
		return c.binary(kind, args[0], args[1])
	}
	// Three or more fanins: keep a single n-ary gate after folding, so
	// the MIG lowering can use n-input templates (a 3-input XOR is a
	// 3-MAJ full-adder sum; a binary chain would cost 6).
	toggle := false // pending output complement (XOR only)
	var rest []int
	for _, a := range args {
		n := c.Nodes[a]
		if n.Kind != KindConst {
			rest = append(rest, a)
			continue
		}
		switch kind {
		case KindXor:
			if n.Value {
				toggle = !toggle
			}
		case KindAnd:
			if !n.Value {
				return c.Const(false)
			}
		case KindOr:
			if n.Value {
				return c.Const(true)
			}
		}
	}
	// Duplicates: XOR pairs cancel; AND/OR are idempotent.
	sort.Ints(rest)
	var dedup []int
	for i := 0; i < len(rest); {
		if i+1 < len(rest) && rest[i] == rest[i+1] {
			if kind == KindXor {
				i += 2 // x XOR x = 0
				continue
			}
			i++ // skip the duplicate
			continue
		}
		dedup = append(dedup, rest[i])
		i++
	}
	// Complement pairs: AND(x,!x)=0, OR(x,!x)=1, XOR(x,!x)=1 (toggles).
	var out []int
	removed := make([]bool, len(dedup))
	for i := range dedup {
		if removed[i] {
			continue
		}
		matched := false
		for j := i + 1; j < len(dedup); j++ {
			if !removed[j] && c.isComplement(dedup[i], dedup[j]) {
				switch kind {
				case KindAnd:
					return c.Const(false)
				case KindOr:
					return c.Const(true)
				case KindXor:
					toggle = !toggle
				}
				removed[i], removed[j] = true, true
				matched = true
				break
			}
		}
		if !matched {
			out = append(out, dedup[i])
		}
	}
	var res int
	switch len(out) {
	case 0:
		switch kind {
		case KindAnd:
			res = c.Const(true)
		default:
			res = c.Const(false)
		}
	case 1:
		res = out[0]
	case 2:
		res = c.binary(kind, out[0], out[1])
	default:
		res = c.gate(kind, out...)
	}
	if toggle {
		res = c.Not(res)
	}
	return res
}

func (c *Circuit) binary(kind Kind, a, b int) int {
	na, nb := c.Nodes[a], c.Nodes[b]
	if na.Kind == KindConst {
		a, b = b, a
		na, nb = nb, na
	}
	if nb.Kind == KindConst {
		switch kind {
		case KindAnd:
			if nb.Value {
				return a
			}
			return c.Const(false)
		case KindOr:
			if nb.Value {
				return c.Const(true)
			}
			return a
		case KindXor:
			if nb.Value {
				return c.Not(a)
			}
			return a
		}
	}
	if a == b {
		switch kind {
		case KindAnd, KindOr:
			return a
		case KindXor:
			return c.Const(false)
		}
	}
	// x op !x
	if (na.Kind == KindNot && na.Fanins[0] == b) || (nb.Kind == KindNot && nb.Fanins[0] == a) {
		switch kind {
		case KindAnd:
			return c.Const(false)
		case KindOr, KindXor:
			return c.Const(true)
		}
	}
	return c.gate(kind, a, b)
}

// Maj returns the three-input majority MAJ(a, b, c), folding the majority
// axiom (two equal fanins dominate) and constants.
func (c *Circuit) Maj(a, b, d int) int {
	// Majority axiom: MAJ(x,x,y)=x; MAJ(x,!x,y)=y.
	if a == b || a == d {
		if a == b && a == d {
			return a
		}
		if a == b {
			return a
		}
		return a
	}
	if b == d {
		return b
	}
	if c.isComplement(a, b) {
		return d
	}
	if c.isComplement(a, d) {
		return b
	}
	if c.isComplement(b, d) {
		return a
	}
	// Constant fanin: MAJ(a,b,0)=AND(a,b), MAJ(a,b,1)=OR(a,b).
	for _, perm := range [3][3]int{{a, b, d}, {a, d, b}, {b, d, a}} {
		x, y, z := perm[0], perm[1], perm[2]
		if c.Nodes[z].Kind == KindConst {
			if c.Nodes[z].Value {
				return c.binary(KindOr, x, y)
			}
			return c.binary(KindAnd, x, y)
		}
	}
	return c.gate(KindMaj, a, b, d)
}

// Mux returns sel ? t : f.
func (c *Circuit) Mux(sel, t, f int) int {
	ns := c.Nodes[sel]
	if ns.Kind == KindConst {
		if ns.Value {
			return t
		}
		return f
	}
	if t == f {
		return t
	}
	return c.gate(KindMux, sel, t, f)
}

// isComplement reports whether nodes a and b are structural complements.
func (c *Circuit) isComplement(a, b int) bool {
	na, nb := c.Nodes[a], c.Nodes[b]
	if na.Kind == KindNot && na.Fanins[0] == b {
		return true
	}
	if nb.Kind == KindNot && nb.Fanins[0] == a {
		return true
	}
	if na.Kind == KindConst && nb.Kind == KindConst && na.Value != nb.Value {
		return true
	}
	return false
}

// Output declares node idx as the next primary output.
func (c *Circuit) Output(idx int, name string) {
	if idx < 0 || idx >= len(c.Nodes) {
		panic(fmt.Sprintf("logic: output node %d out of range", idx))
	}
	c.Outputs = append(c.Outputs, idx)
	c.OutputNames = append(c.OutputNames, name)
}

// OutputBus declares all nodes of bus as outputs named name[i], LSB first.
func (c *Circuit) OutputBus(bus []int, name string) {
	for i, n := range bus {
		c.Output(n, fmt.Sprintf("%s[%d]", name, i))
	}
}

// GateCount returns the number of non-leaf nodes (gates).
func (c *Circuit) GateCount() int {
	n := 0
	for i := range c.Nodes {
		if c.Nodes[i].Kind != KindInput && c.Nodes[i].Kind != KindConst {
			n++
		}
	}
	return n
}

// Depth returns the length of the longest input→output gate path,
// counting only gate nodes (NOT counts as a gate).
func (c *Circuit) Depth() int {
	depth := make([]int, len(c.Nodes))
	max := 0
	for i, n := range c.Nodes {
		switch n.Kind {
		case KindInput, KindConst:
			depth[i] = 0
		default:
			d := 0
			for _, f := range n.Fanins {
				if depth[f] > d {
					d = depth[f]
				}
			}
			depth[i] = d + 1
		}
	}
	for _, o := range c.Outputs {
		if depth[o] > max {
			max = depth[o]
		}
	}
	return max
}

// Validate checks structural invariants: topological fanin order, arity,
// and output declarations. It returns the first violation found.
func (c *Circuit) Validate() error {
	for i, n := range c.Nodes {
		if want := n.Kind.arity(); want >= 0 && len(n.Fanins) != want {
			return fmt.Errorf("node %d (%s): want %d fanins, have %d", i, n.Kind, want, len(n.Fanins))
		}
		if n.Kind == KindAnd || n.Kind == KindOr || n.Kind == KindXor {
			if len(n.Fanins) < 2 {
				return fmt.Errorf("node %d (%s): want >=2 fanins, have %d", i, n.Kind, len(n.Fanins))
			}
		}
		for _, f := range n.Fanins {
			if f >= i {
				return fmt.Errorf("node %d (%s): fanin %d not topologically earlier", i, n.Kind, f)
			}
			if f < 0 {
				return fmt.Errorf("node %d (%s): negative fanin %d", i, n.Kind, f)
			}
		}
	}
	if len(c.Outputs) == 0 {
		return fmt.Errorf("circuit declares no outputs")
	}
	for _, o := range c.Outputs {
		if o < 0 || o >= len(c.Nodes) {
			return fmt.Errorf("output node %d out of range", o)
		}
	}
	return nil
}

// String summarizes the circuit.
func (c *Circuit) String() string {
	return fmt.Sprintf("circuit{inputs=%d outputs=%d gates=%d depth=%d}",
		len(c.Inputs), len(c.Outputs), c.GateCount(), c.Depth())
}
