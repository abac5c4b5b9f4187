package dram

import (
	"slices"
	"sync"
)

// Plan is a checked op stream lowered to row steps: the only form the
// command kernel runs. A step computes one row-buffer value f(in) — a
// copy of one input row, or the majority of three — each input
// optionally complemented, and writes it into its output rows:
//
//	out₀ = f(in) ⊕ n₀,   outₖ = out₀ ⊕ (n₀ ⊕ nₖ)
//
// where nₖ is set when output k takes the complement (a DCC partner).
// Lowering (RowMap.Plan with lower set) runs two passes over the stream:
//
//   - Copy forwarding: a read of a row that still holds an unchanged
//     copy of another row reads that row instead, and a read through a
//     DCC negation becomes an input complement.
//   - Backward dead-store elimination: every row is live at the end of
//     the plan, and a write is dropped when its row is overwritten
//     before anything reads it. A step left with no outputs is dropped.
//
// So the rows a plan leaves are bit-identical to issuing its ops one
// at a time, while AAP copies that only feed a triple-row activation
// cost no row pass at all. Energy, counters and traced commands stay
// per op: after the steps have run, Exec charges each op's energy in
// stream order and shows each op to OnCommand, or, with no OnCommand
// set, charges the energy of the plan's per-class op counts at once.
// A plan is immutable and safe to share across goroutines.
//
// A plan is checked once, when it is built: its code parses whole into
// steps, and nrows bounds the rows they name. A run then checks only
// that its row table holds nrows rows, and the step loops check
// nothing, as a control unit replays μOps that were checked when they
// were generated.
type Plan struct {
	ops    []Op    // the stream: energy and traced commands, one per op
	code   []int32 // the steps, each encoded as below
	counts Stats   // command counters one run adds
	// classes counts the stream's ops per energy class, so a run
	// without OnCommand charges its energy in one sum.
	classes [numEnergyClasses]int64
	nrows   int // one past the highest row any step names
}

// A step is encoded in Plan.code as its header n<<1 | maj, its inputs
// (three for a majority, else one), then its n output rows. A row is
// stored as itself, or as ^row where the step reads or writes its
// complement.
const stepMaj = 1

// maxWrites bounds the rows one op writes: three T rows and three
// destinations, each destination with a DCC partner.
const maxWrites = 9

// maxStep bounds the encoded length of one op's step.
const maxStep = 1 + 3 + maxWrites

// rowState is what lowerPlan tracks per row. A row holds an unchanged
// copy of entry src while src's row has the write count at; the row
// itself as src means no copy.
type rowState struct {
	src, at int32
	ver     int32 // the row's own write count
	live    bool  // backward pass: read before its next write, or never written again
}

// lowerBufs are lowerPlan's working buffers, kept between builds.
type lowerBufs struct {
	rows []rowState
	recs []int32
}

var lowerPool = sync.Pool{New: func() any { return new(lowerBufs) }}

// rowOf returns the row of a plan row entry.
func rowOf(x int32) int32 { return x ^ x>>31 }

// polar returns x complemented when o is a complemented entry.
func polar(x, o int32) int32 { return x ^ o>>31 }

// Plan builds the plan of ops, which must have passed m.CheckOp, and
// keeps ops for energy and tracing. With lower unset each op becomes
// one step; with lower set the stream is lowered by copy forwarding
// and dead-store elimination. Lowering treats every row as a distinct
// storage row: it is unsound for ops run through a view whose aliased
// virtual rows one of the ops writes.
func (m RowMap) Plan(ops []Op, lower bool) Plan {
	if lower {
		return lowerPlan(ops, m.Rows())
	}
	code := make([]int32, len(ops)*maxStep)
	n := 0
	for i := range ops {
		n += ops[i].encode(code[n:])
	}
	return newPlan(ops, slices.Clip(code[:n]))
}

// newPlan returns the plan of ops with the encoded steps code, its
// command counters and energy-class counts taken from ops. It panics
// if code does not parse (see scanCode), which code encoded from ops
// that passed CheckOp never does.
func newPlan(ops []Op, code []int32) Plan {
	nrows, ok := scanCode(code)
	if !ok {
		panic("dram: malformed plan code")
	}
	p := Plan{ops: ops, code: code, counts: countOps(ops), nrows: nrows}
	for i := range ops {
		p.classes[ops[i].energy]++
	}
	return p
}

// scanCode walks encoded steps once and returns one past the highest
// row an entry names; ok is false unless every step has a non-negative
// header, 1 to maxWrites outputs and all its entries inside code. The
// step loops rely on both: they parse and index without a check.
func scanCode(code []int32) (nrows int, ok bool) {
	for c := code; len(c) > 0; {
		h := c[0]
		n := 1 + 2*int(h&stepMaj) + int(h>>1) // entries after the header
		if h < 0 || h>>1 < 1 || h>>1 > maxWrites || n >= len(c) {
			return 0, false
		}
		for _, x := range c[1 : 1+n] {
			nrows = max(nrows, int(rowOf(x))+1)
		}
		c = c[1+n:]
	}
	return nrows, true
}

// numWrites bounds the entries writes stores for op.
func (op *Op) numWrites() int {
	n := 2 * int(op.NDst)
	if op.Kind != CmdAAP {
		n += 3
	}
	return n
}

// encode stores op's unlowered step in c, which holds at least maxStep
// entries, and returns its length.
func (op *Op) encode(c []int32) int {
	if op.Kind == CmdAAP {
		c[1] = op.Src
		n := op.writes(c[2:])
		c[0] = int32(n << 1)
		return 2 + n
	}
	c[1], c[2], c[3] = op.T[0], op.T[1], op.T[2]
	n := op.writes(c[4:])
	c[0] = int32(n<<1 | stepMaj)
	return 4 + n
}

// writes stores in w, which holds at least numWrites entries, the rows
// op leaves written, each once, in order of first write, and returns
// their number. An entry is ^row where the row ends up holding the
// complement of the op's row-buffer value: a later write to a row
// replaces an earlier one, as when one AAP writes both rows of a DCC
// pair.
func (op *Op) writes(w []int32) int {
	n := 0
	if op.Kind != CmdAAP {
		w[0], w[1], w[2] = op.T[0], op.T[1], op.T[2] // distinct, by CheckOp
		n = 3
	}
	for j := 0; j < int(op.NDst); j++ {
		n = putWrite(w, n, op.Dsts[j])
		if c := op.comp[j]; c != 0 {
			n = putWrite(w, n, ^c)
		}
	}
	return n
}

// putWrite adds entry x to the n entries of w, replacing an entry of
// the same row, and returns the new count.
func putWrite(w []int32, n int, x int32) int {
	for k, y := range w[:n] {
		if rowOf(y) == rowOf(x) {
			w[k] = x
			return n
		}
	}
	w[n] = x
	return n + 1
}

// lowerPlan is Plan with lowering, for ops on rows [0, rows). A
// forward pass records each op's step on forwarded inputs as outputs,
// three input slots (a copy uses the first), header — header last, so
// a backward pass can walk the records, drop dead writes and pack the
// live steps, encoded, toward the end of the same buffer. The packed
// steps are copied out exactly sized.
func lowerPlan(ops []Op, rows int32) Plan {
	n := 0
	for i := range ops {
		n += 4 + ops[i].numWrites()
	}
	lb := lowerPool.Get().(*lowerBufs)
	defer lowerPool.Put(lb)
	if cap(lb.rows) < int(rows) {
		lb.rows = make([]rowState, rows)
	}
	if cap(lb.recs) < n {
		lb.recs = make([]int32, n)
	}
	rs, buf := lb.rows[:rows], lb.recs[:n]
	for r := range rs {
		rs[r] = rowState{src: int32(r)}
	}
	read := func(r int32) int32 {
		if q := &rs[r]; q.src != r && rs[rowOf(q.src)].ver == q.at {
			return q.src
		}
		return r
	}

	end := 0
	for i := range ops {
		op := &ops[i]
		w := buf[end:]
		k := op.writes(w)
		var src, h int32
		if op.Kind == CmdAAP {
			// A write of the value its row already holds is dropped.
			src = read(op.Src)
			m := 0
			for _, o := range w[:k] {
				if read(rowOf(o)) != polar(src, o) {
					w[m] = o
					m++
				}
			}
			if m == 0 {
				continue
			}
			k = m
			w[k] = src
		} else {
			w[k], w[k+1], w[k+2] = read(op.T[0]), read(op.T[1]), read(op.T[2])
			h = stepMaj
		}
		w[k+3] = int32(k<<1) | h
		end += k + 4
		// Each output becomes a copy of src, valid while src's row keeps
		// the write count it has now. A majority is a new value: its
		// first output is the others' src. A copy that complements its
		// own source row in place bumps that count below, so the copies
		// it records are never valid.
		o := w[:k]
		if h == stepMaj {
			src = o[0]
			q := &rs[rowOf(src)]
			q.src = rowOf(src)
			q.ver++
			o = o[1:]
		}
		at := rs[rowOf(src)].ver
		for _, x := range o {
			q := &rs[rowOf(x)]
			q.src, q.at = polar(src, x), at
			q.ver++
		}
	}

	// Backward. A step's encoding is no longer than its record, so
	// packing never reaches a record not yet read.
	for r := range rs {
		rs[r].live = true
	}
	at := len(buf)
	for end > 0 {
		h := buf[end-1]
		in := [3]int32{buf[end-4], buf[end-3], buf[end-2]}
		o := buf[end-4-int(h>>1) : end-4]
		end -= 4 + int(h>>1)
		var kept [maxWrites]int32
		k := 0
		for _, x := range o {
			if q := &rs[rowOf(x)]; q.live {
				q.live = false
				kept[k] = x
				k++
			}
		}
		if k == 0 {
			continue
		}
		nin := 1 + 2*int(h&stepMaj)
		for _, x := range in[:nin] {
			rs[rowOf(x)].live = true
		}
		at -= 1 + nin + k
		buf[at] = int32(k<<1) | h&stepMaj
		copy(buf[at+1:], in[:nin])
		copy(buf[at+1+nin:], kept[:k])
	}
	return newPlan(ops, slices.Clone(buf[at:]))
}
