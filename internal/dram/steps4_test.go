package dram

import (
	"math/rand"
	"slices"
	"testing"
)

// byteSource hands out a fuzz input one byte at a time, then zeros.
type byteSource []byte

func (b *byteSource) next() byte {
	if len(*b) == 0 {
		return 0
	}
	x := (*b)[0]
	*b = (*b)[1:]
	return x
}

// The flaws steps4Case gives a case, one at most: the ways a row table
// or encoded steps can break what the step loops rely on. A long row
// breaks nothing: both loops read a row's first 4 words.
const (
	flawNone        = iota
	flawShortRow    // a storage row of fewer than 4 words
	flawLongRow     // a storage row of 6 words
	flawEntry       // a row entry past the table
	flawNegHeader   // a negative header
	flawLongHeader  // a header naming more outputs than the code holds
	flawNoOutputs   // a step with no outputs
	flawManyOutputs // a step with maxWrites+1 outputs
	flawCut         // code cut inside its last step
	numFlaws
)

// steps4Case decodes FuzzSteps4's input into storage rows, a row table
// over them (table[i] is row i's storage row) and encoded steps. The
// table has more entries than there is storage, so rows alias as a
// view's virtual rows may. Half the cases have no flaw; the others
// have one, picked from the input.
func steps4Case(data []byte) (store [][]uint64, table []int, code []int32) {
	src := byteSource(data)
	rng := rand.New(rand.NewSource(int64(src.next())<<8 | int64(src.next())))
	flaw := int(src.next()) % (2 * numFlaws)
	if flaw >= numFlaws {
		flaw = flawNone
	}
	store = make([][]uint64, 1+int(src.next())%8)
	for i := range store {
		store[i] = make([]uint64, narrowWords)
	}
	switch k := int(src.next()) % len(store); flaw {
	case flawShortRow:
		store[k] = make([]uint64, int(src.next())%narrowWords)
	case flawLongRow:
		store[k] = make([]uint64, narrowWords+2)
	}
	for _, row := range store {
		for w := range row {
			row[w] = rng.Uint64()
		}
	}
	table = make([]int, 1+int(src.next())%12)
	for i := range table {
		table[i] = int(src.next()) % len(store)
	}
	polar := func(r int32, e byte) int32 {
		if e&1 != 0 {
			return ^r
		}
		return r
	}
	var entries []int // the positions of row entries in code
	flawAt := int(src.next()) % 8
	for step := 0; len(src) > 0 && step < 64; step++ {
		h := src.next()
		maj, n := int32(h&stepMaj), 1+int32(h>>1)%maxWrites
		header := n<<1 | maj
		if step == flawAt {
			switch flaw {
			case flawNegHeader:
				header = -n<<1 | maj
			case flawLongHeader:
				header = 1<<20 | maj
			case flawNoOutputs:
				n, header = 0, maj
			case flawManyOutputs:
				n = maxWrites + 1
				header = n<<1 | maj
			}
		}
		code = append(code, header)
		for k := int32(0); k < 1+2*maj+n; k++ {
			e := src.next()
			entries = append(entries, len(code))
			code = append(code, polar(int32(e>>1)%int32(len(table)), e))
		}
	}
	switch {
	case flaw == flawEntry && len(entries) > 0:
		e := byte(rng.Intn(256))
		code[entries[rng.Intn(len(entries))]] = polar(int32(len(table))+int32(e>>1)%4, e)
	case flaw == flawCut && len(code) > 0:
		code = code[:len(code)-1-rng.Intn(min(3, len(code)))]
	}
	return store, table, code
}

// tableRows returns the row table whose row i is store[table[i]].
func tableRows(store [][]uint64, table []int) [][]uint64 {
	rows := make([][]uint64, len(table))
	for i, s := range table {
		rows[i] = store[s]
	}
	return rows
}

// steps4Accepts reports whether the kernel lets code run over rows:
// code parses (newPlan's check), rows holds every row it names (exec's
// check), and every row holds 4 words or more (what the View invariant
// gives exec once it has picked the 4-word loop: a subarray whose rows
// are 4 words has no other rows).
func steps4Accepts(rows [][]uint64, code []int32) bool {
	nrows, ok := scanCode(code)
	if !ok || nrows > len(rows) {
		return false
	}
	for _, r := range rows {
		if len(r) < narrowWords {
			return false
		}
	}
	return true
}

// checkSteps4 runs one FuzzSteps4 input through the Go step loop and,
// when the kernel's checks accept it, through the vector one.
func checkSteps4(t *testing.T, data []byte) {
	store, table, code := steps4Case(data)
	goStore, vecStore := make([][]uint64, len(store)), make([][]uint64, len(store))
	for i, row := range store {
		goStore[i], vecStore[i] = slices.Clone(row), slices.Clone(row)
	}
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		steps4(tableRows(goStore, table), code)
		return false
	}()
	rows := tableRows(vecStore, table)
	if !steps4Accepts(rows, code) {
		return
	}
	if panicked {
		t.Fatalf("the kernel's checks accept a case steps4 panics on (code %v, table %v)", code, table)
	}
	steps4Vec(rows, code)
	for i := range store {
		if !slices.Equal(goStore[i], vecStore[i]) {
			t.Fatalf("storage row %d: steps4 left %x, steps4Vec %x (code %v, table %v)", i, goStore[i], vecStore[i], code, table)
		}
	}
}

// FuzzSteps4 holds the AVX2 4-word step loop, which checks nothing, to
// the Go one on random row tables and encoded steps — complemented
// inputs and outputs, outputs that alias inputs, up to maxWrites
// outputs — each with at most one flaw: a short or long row, an
// out-of-range entry, a bad header or cut code. The checks newPlan
// and exec make must reject every case on which the Go loop panics,
// and on every case they accept both loops must leave identical rows.
func FuzzSteps4(f *testing.F) {
	if !haveVector {
		f.Skip("no vector step loop on this CPU")
	}
	rng := rand.New(rand.NewSource(4))
	accepted := 0
	const seeds = 64
	for i := 0; i < seeds; i++ {
		data := make([]byte, 8+rng.Intn(160))
		rng.Read(data)
		f.Add(data)
		store, table, code := steps4Case(data)
		if steps4Accepts(tableRows(store, table), code) {
			accepted++
		}
	}
	if accepted == 0 || accepted == seeds {
		f.Fatalf("the kernel's checks accept %d of %d seed cases; the seeds must test both sides", accepted, seeds)
	}
	f.Fuzz(checkSteps4)
}

// TestNewPlanRejectsMalformedCode builds plans from code that does not
// parse: each must panic in newPlan, before any run.
func TestNewPlanRejectsMalformedCode(t *testing.T) {
	for _, code := range [][]int32{
		{-2, 0, 1}, // negative header
		{0, 0},     // a copy with no outputs
		{(maxWrites + 1) << 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, // too many outputs
		{2<<1 | stepMaj, 0, 1, 2, 3},                             // a majority cut inside its outputs
		{1 << 1, 0, 1, 1 << 1},                                   // code cut after a header
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newPlan accepted code %v", code)
				}
			}()
			newPlan(nil, code)
		}()
	}
	if p := newPlan(nil, []int32{1 << 1, ^int32(3), 7, 2<<1 | stepMaj, 0, 1, 2, 5, ^int32(9)}); p.nrows != 10 {
		t.Errorf("nrows %d, want 10", p.nrows)
	}
}
