package main

import (
	"fmt"
	"math/rand"

	"simdram"
	"simdram/internal/baseline/cpu"
	"simdram/internal/graph"
	"simdram/internal/ops"
)

// dag is one expression DAG in the benchmark's own compact form. Every
// workload's requests are generated as dags; from one dag the benchmark
// builds the expressions it hands to the program (exprs), the golden
// result the program must reproduce (golden), and the internal/graph
// IR the compiler ledger times (irGraph). Keeping one description per
// request is what lets the three never disagree.
type dag struct {
	n     int   // elements per vector
	vals  []val // inputs, constants and operations, operands first
	roots []int // indices into vals
}

// val is one node of a dag: an input leaf (in >= 0), a constant
// (op == "" and in < 0), or an operation over earlier vals.
type val struct {
	op    string
	in    int
	c     uint64
	width int // element width of the node's result
	args  []int
}

func (d *dag) add(v val) int {
	d.vals = append(d.vals, v)
	return len(d.vals) - 1
}

// input adds the k-th input leaf.
func (d *dag) input(k, width int) int { return d.add(val{in: k, width: width}) }

// scalar adds a constant splatted across every lane.
func (d *dag) scalar(c uint64, width int) int { return d.add(val{in: -1, c: c, width: width}) }

// apply adds op(args...); the receiver operand is args[0], as in
// simdram.Expr.Apply.
func (d *dag) apply(op string, args ...int) int {
	def, err := ops.ByName(op)
	if err != nil {
		panic(err) // generators only name catalog operations
	}
	return d.add(val{op: op, in: -1, width: def.DstWidth(d.vals[args[0]].width), args: args})
}

func (d *dag) numInputs() int {
	n := 0
	for _, v := range d.vals {
		if v.in >= 0 {
			n++
		}
	}
	return n
}

// exprs builds the dag's root expressions; leaf supplies the k-th
// input leaf (an Input data leaf for served jobs, a Lazy vector for a
// System). Each val becomes exactly one *Expr, so shared operands stay
// shared.
func (d *dag) exprs(leaf func(k, width int) *simdram.Expr) []*simdram.Expr {
	es := make([]*simdram.Expr, len(d.vals))
	for i, v := range d.vals {
		switch {
		case v.op != "":
			more := make([]*simdram.Expr, len(v.args)-1)
			for j, a := range v.args[1:] {
				more[j] = es[a]
			}
			es[i] = es[v.args[0]].Apply(v.op, more...)
		case v.in >= 0:
			es[i] = leaf(v.in, v.width)
		default:
			es[i] = simdram.Scalar(v.c, v.width)
		}
	}
	roots := make([]*simdram.Expr, len(d.roots))
	for i, r := range d.roots {
		roots[i] = es[r]
	}
	return roots
}

// golden computes every root on the host through the golden CPU model
// (cpu.Run, i.e. each operation's ops.Def.Golden).
func (d *dag) golden(inputs [][]uint64) [][]uint64 {
	vs := make([][]uint64, len(d.vals))
	for i, v := range d.vals {
		switch {
		case v.op != "":
			def, _ := ops.ByName(v.op)
			operands := make([][]uint64, len(v.args))
			for j, a := range v.args {
				operands[j] = vs[a]
			}
			vs[i] = cpu.Run(def, d.vals[v.args[0]].width, operands)
		case v.in >= 0:
			vs[i] = inputs[v.in]
		default:
			vs[i] = make([]uint64, d.n)
			for j := range vs[i] {
				vs[i][j] = v.c
			}
		}
	}
	out := make([][]uint64, len(d.roots))
	for i, r := range d.roots {
		out[i] = vs[r]
	}
	return out
}

// irGraph builds the same DAG directly in the compiler's IR — what the
// simdram facade builds from exprs before running its passes.
func (d *dag) irGraph() (*graph.Graph, error) {
	g := graph.New()
	ids := make([]graph.NodeID, len(d.vals))
	for i, v := range d.vals {
		var err error
		switch {
		case v.op != "":
			def, _ := ops.ByName(v.op)
			args := make([]graph.NodeID, len(v.args))
			for j, a := range v.args {
				args[j] = ids[a]
			}
			ids[i], err = g.Op(def, args...)
		case v.in >= 0:
			ids[i], err = g.Input(v.width)
		default:
			ids[i], err = g.Const(v.c, v.width)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, r := range d.roots {
		g.MarkRoot(ids[r])
	}
	return g, nil
}

// hashValues is a 64-bit FNV-1a over result words and slice lengths:
// the expected-result fingerprint the workloads store instead of whole
// result vectors.
func hashValues(vs [][]uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, s := range vs {
		h = (h ^ uint64(len(s))) * prime
		for _, v := range s {
			h = (h ^ v) * prime
		}
	}
	return h
}

// expect hashes a golden result; corrupt flips one bit of it first, so
// a run against it must fail (the benchmark's own self-test).
func expect(golden [][]uint64, corrupt bool) uint64 {
	if corrupt {
		golden[0] = append([]uint64(nil), golden[0]...)
		golden[0][0] ^= 1
	}
	return hashValues(golden)
}

// randVec returns n values uniform in [lo, lo+span).
func randVec(rng *rand.Rand, n int, lo, span int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(lo + rng.Intn(span))
	}
	return v
}

// serveShape is one request shape of the serve-hot mix. The shapes are
// the serving demo's (internal/batchgen.ServeShapes, built from
// internal/kernels): brightness in both saturation directions, a
// BitWeaving scan and TPC-H Q6, over n-element payloads.
type serveShape struct {
	build   func(n int) dag
	payload func(rng *rand.Rand, n int) [][]uint64
}

var serveShapes = []serveShape{
	{func(n int) dag { return brightness(n, 40) }, byteInput},
	{func(n int) dag { return brightness(n, -60) }, byteInput},
	{bitweaving, byteInput},
	{tpchQ6, func(rng *rand.Rand, n int) [][]uint64 {
		return [][]uint64{
			randVec(rng, n, 9000, 2557), // ship date
			randVec(rng, n, 0, 11),      // discount
			randVec(rng, n, 1, 50),      // quantity
			randVec(rng, n, 100, 60000), // extended price
		}
	}},
}

// byteInput is one input of values in [0, 256): pixels or scan codes.
func byteInput(rng *rand.Rand, n int) [][]uint64 { return [][]uint64{randVec(rng, n, 0, 256)} }

// brightness is kernels.BrightnessExpr: pixels staged at 16 bits,
// saturation as a compare plus if_else.
func brightness(n, delta int) dag {
	d := dag{n: n}
	px := d.input(0, 16)
	if delta >= 0 {
		sum := d.apply("addition", px, d.scalar(uint64(delta), 16))
		over := d.apply("greater", sum, d.scalar(255, 16))
		d.roots = []int{d.apply("if_else", d.scalar(255, 16), sum, over)}
		return d
	}
	dv := d.scalar(uint64(-delta), 16)
	diff := d.apply("subtraction", px, dv)
	under := d.apply("greater", dv, px)
	d.roots = []int{d.apply("if_else", d.scalar(0, 16), diff, under)}
	return d
}

// bitweaving is kernels.BitWeavingLtExpr with the serving demo's cut
// (100) and code width (8).
func bitweaving(n int) dag {
	d := dag{n: n}
	codes := d.input(0, 8)
	d.roots = []int{d.apply("greater", d.scalar(100, 8), codes)}
	return d
}

// tpchQ6 is kernels.TPCHQ6Expr under kernels.DefaultQ6 parameters.
func tpchQ6(n int) dag {
	d := dag{n: n}
	ship, disc, qty, price := d.input(0, 16), d.input(1, 16), d.input(2, 16), d.input(3, 16)
	p1 := d.apply("greater_equal", ship, d.scalar(9500, 16))
	p2 := d.apply("greater", d.scalar(9865, 16), ship)
	p3 := d.apply("greater_equal", disc, d.scalar(1, 16))
	p4 := d.apply("greater_equal", d.scalar(3, 16), disc)
	p5 := d.apply("greater", d.scalar(24, 16), qty)
	pred := d.apply("and_red", d.apply("and_red", p1, p2, p3), p4, p5)
	rev := d.apply("multiplication", price, disc)
	d.roots = []int{d.apply("if_else", rev, d.scalar(0, 32), pred)}
	return d
}

// adhocOps are the operations of serve-adhoc's random DAGs.
var adhocOps = [...]string{"addition", "subtraction", "max", "min"}

// adhocDAG draws one random serve-adhoc request shape: nOps 8-bit
// operations over inputs input leaves, each operation's first operand
// an earlier non-constant node (biased towards recent ones, so chains
// grow deep) and its second either such a node or, one time in four, a
// fresh random constant. Every node nothing consumes is a root, so
// dead-code elimination removes nothing.
func adhocDAG(rng *rand.Rand, n, inputs, nOps int) dag {
	d := dag{n: n}
	var live []int // non-constant nodes
	for k := 0; k < inputs; k++ {
		live = append(live, d.input(k, 8))
	}
	pick := func() int {
		if rng.Intn(2) == 0 && len(live) > 4 {
			return live[len(live)-1-rng.Intn(4)]
		}
		return live[rng.Intn(len(live))]
	}
	used := map[int]bool{}
	for i := 0; i < nOps; i++ {
		a, b := pick(), -1
		if rng.Intn(4) == 0 {
			b = d.scalar(uint64(rng.Intn(256)), 8)
		} else {
			b = pick()
		}
		used[a], used[b] = true, true
		live = append(live, d.apply(adhocOps[rng.Intn(len(adhocOps))], a, b))
	}
	for _, id := range live[inputs:] {
		if !used[id] {
			d.roots = append(d.roots, id)
		}
	}
	return d
}

// replayDAG is internal/batchgen.GraphExprs — four 8-bit leaves and
// four chained roots over a deliberately re-built common prefix — as a
// dag, together with the leaf data GraphExprs(sys, seed) stores (the
// same generator sequence), so results can be checked.
func replayDAG(n int, seed int64) (dag, [][]uint64) {
	const width = 8
	rng := rand.New(rand.NewSource(seed))
	d := dag{n: n}
	data := make([][]uint64, 4)
	for i := range data {
		data[i] = make([]uint64, n)
		for j := range data[i] {
			data[i][j] = uint64(rng.Uint32()) & 0xFF
		}
		d.input(i, width)
	}
	a, b, c, e := 0, 1, 2, 3
	seven := d.apply("addition", d.scalar(3, width), d.scalar(4, width))
	for r := 0; r < 4; r++ {
		t := d.apply("max", d.apply("addition", a, b), c)
		for i := 0; i < 3; i++ {
			switch (i + r) % 4 {
			case 0:
				t = d.apply("addition", d.apply("subtraction", t, e), seven)
			case 1:
				t = d.apply("addition", d.apply("min", t, a), b)
			case 2:
				t = d.apply("subtraction", d.apply("max", t, e), c)
			default:
				t = d.apply("min", d.apply("addition", t, e), b)
			}
		}
		d.roots = append(d.roots, d.apply("addition", t, d.scalar(uint64(r), width)))
	}
	return d, data
}

// checkRoots compares loaded root values against an expected hash.
func checkRoots(what string, got [][]uint64, want uint64) error {
	if h := hashValues(got); h != want {
		return fmt.Errorf("%s: result hash %#x, golden model %#x", what, h, want)
	}
	return nil
}
