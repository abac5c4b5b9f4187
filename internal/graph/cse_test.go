package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// cseOracle is the original string-keyed CSE, kept as the reference
// the struct-keyed pass must reproduce merge for merge.
func cseOracle(g *Graph) int {
	repl := make([]NodeID, len(g.nodes))
	for i := range repl {
		repl[i] = NodeID(i)
	}
	canon := map[string]NodeID{}
	merged := 0
	for id := range g.nodes {
		n := &g.nodes[id]
		for k, a := range n.Args() {
			n.Args()[k] = repl[a]
		}
		var key string
		switch n.Kind {
		case KindConst:
			key = fmt.Sprintf("c|%d|%d", n.Val, n.Width)
		case KindOp:
			key = fmt.Sprintf("o|%d|%v", n.Op.Code, n.Args())
		default:
			continue
		}
		if first, ok := canon[key]; ok {
			repl[id] = first
			if n.Root {
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

// cloneGraph deep-copies a graph so CSE and its oracle can each
// rewrite their own copy. Nodes hold their arguments inline, so
// copying the node table copies them.
func cloneGraph(g *Graph) *Graph {
	return &Graph{nodes: append([]Node(nil), g.nodes...), roots: append([]NodeID(nil), g.roots...)}
}

// checkCSE runs CSE and the oracle on copies of g and requires the
// same merge count, argument lists, root marks and root sequence; it
// returns the merge count.
func checkCSE(t *testing.T, name string, g *Graph) int {
	t.Helper()
	got, want := cloneGraph(g), cloneGraph(g)
	mg, mw := got.CSE(), cseOracle(want)
	if mg != mw {
		t.Fatalf("%s: CSE merged %d nodes, oracle %d", name, mg, mw)
	}
	for i := range want.nodes {
		ng, nw := &got.nodes[i], &want.nodes[i]
		if !reflect.DeepEqual(ng.Args(), nw.Args()) || ng.Root != nw.Root {
			t.Fatalf("%s: node %d: args %v root %v, oracle args %v root %v", name, i, ng.Args(), ng.Root, nw.Args(), nw.Root)
		}
	}
	if !reflect.DeepEqual(got.roots, want.roots) {
		t.Fatalf("%s: roots %v, oracle %v", name, got.roots, want.roots)
	}
	return mg
}

func TestCSEMatchesStringKeys(t *testing.T) {
	constant := func(g *Graph, val uint64, width int) NodeID {
		id, err := g.Const(val, width)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	cases := []struct {
		name   string
		build  func(g *Graph)
		merged int
	}{
		{"equal constants, different widths", func(g *Graph) {
			g.MarkRoot(constant(g, 5, 8))
			g.MarkRoot(constant(g, 5, 16))
			g.MarkRoot(constant(g, 5, 8)) // merges with the first
		}, 1},
		{"same op, different arg counts", func(g *Graph) {
			a, b, c := input(t, g, 8), input(t, g, 8), input(t, g, 8)
			g.MarkRoot(op(t, g, "and_red", a, b))
			g.MarkRoot(op(t, g, "and_red", a, b, c))
			g.MarkRoot(op(t, g, "and_red", a, b)) // merges with the first
		}, 1},
		{"same op, arg node 0 in the padding position", func(g *Graph) {
			a, b := input(t, g, 8), input(t, g, 8)
			g.MarkRoot(op(t, g, "and_red", a, b))
			g.MarkRoot(op(t, g, "and_red", a, b, a))
		}, 0},
		{"swapped args", func(g *Graph) {
			a, b := input(t, g, 8), input(t, g, 8)
			g.MarkRoot(op(t, g, "addition", a, b))
			g.MarkRoot(op(t, g, "addition", b, a))
		}, 0},
		{"three-arg if_else", func(g *Graph) {
			a, b := input(t, g, 8), input(t, g, 8)
			s1, s2 := input(t, g, 1), input(t, g, 1)
			g.MarkRoot(op(t, g, "if_else", a, b, s1))
			g.MarkRoot(op(t, g, "if_else", a, b, s2))
			g.MarkRoot(op(t, g, "if_else", a, b, s1)) // merges with the first
			g.MarkRoot(op(t, g, "if_else", b, a, s1))
		}, 1},
		{"merges cascade through remapped args", func(g *Graph) {
			a, b := input(t, g, 8), input(t, g, 8)
			x := op(t, g, "addition", a, b)
			y := op(t, g, "addition", a, b)
			g.MarkRoot(op(t, g, "max", x, a))
			g.MarkRoot(op(t, g, "max", y, a))
		}, 2},
	}
	for _, tc := range cases {
		g := New()
		tc.build(g)
		if got := checkCSE(t, tc.name, g); got != tc.merged {
			t.Errorf("%s: merged %d nodes, want %d", tc.name, got, tc.merged)
		}
	}

	// Seeded random DAGs mixing every case: 8- and 16-bit constants with
	// colliding values, binary ops, 2- and 3-operand reductions,
	// if_else, and duplicated subtrees.
	binary := []string{"addition", "subtraction", "max", "min"}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		g := New()
		var by8 []NodeID
		sel := input(t, g, 1)
		for i := 0; i < 3; i++ {
			by8 = append(by8, input(t, g, 8))
		}
		pick := func() NodeID { return by8[rng.Intn(len(by8))] }
		for i := 0; i < 30; i++ {
			var id NodeID
			switch r := rng.Intn(6); r {
			case 0:
				id = constant(g, uint64(rng.Intn(4)), 8)
				constant(g, uint64(rng.Intn(4)), 16)
			case 1:
				args := []NodeID{pick(), pick()}
				if rng.Intn(2) == 0 {
					args = append(args, pick())
				}
				id = op(t, g, "xor_red", args...)
			case 2:
				id = op(t, g, "if_else", pick(), pick(), sel)
			default:
				id = op(t, g, binary[rng.Intn(len(binary))], pick(), pick())
			}
			by8 = append(by8, id)
			if rng.Intn(4) == 0 {
				g.MarkRoot(id)
			}
		}
		g.MarkRoot(by8[len(by8)-1])
		checkCSE(t, fmt.Sprintf("random %d", trial), g)
	}
}
