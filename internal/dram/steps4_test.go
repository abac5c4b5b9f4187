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

// The flaws stepsCase gives a case, one at most: the ways a row table
// or encoded steps can break what the step loops rely on.
const (
	flawNone        = iota
	flawShortRow    // a storage row shorter than the case's width
	flawLongRow     // a storage row 2 words longer
	flawEntry       // a row entry past the table
	flawNegHeader   // a negative header
	flawLongHeader  // a header naming more outputs than the code holds
	flawNoOutputs   // a step with no outputs
	flawManyOutputs // a step with maxWrites+1 outputs
	flawCut         // code cut inside its last step
	numFlaws
)

// stepsCase decodes a fuzz input into storage rows of words words, a
// row table over them (table[i] is row i's storage row) and encoded
// steps. The table has more entries than there is storage, so rows
// alias as a view's virtual rows may, and a step's output may repeat
// one of its earlier outputs with the other polarity. Half the cases
// have no flaw; the others have one, picked from the input.
func stepsCase(data []byte, words int) (store [][]uint64, table []int, code []int32) {
	src := byteSource(data)
	rng := rand.New(rand.NewSource(int64(src.next())<<8 | int64(src.next())))
	flaw := int(src.next()) % (2 * numFlaws)
	if flaw >= numFlaws {
		flaw = flawNone
	}
	store = make([][]uint64, 1+int(src.next())%8)
	for i := range store {
		store[i] = make([]uint64, words)
	}
	switch k := int(src.next()) % len(store); flaw {
	case flawShortRow:
		store[k] = make([]uint64, int(src.next())%words)
	case flawLongRow:
		store[k] = make([]uint64, words+2)
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
		first := len(code) + 1 + 2*int(maj) // the step's first output
		for k := int32(0); k < 1+2*maj+n; k++ {
			e := src.next()
			entries = append(entries, len(code))
			x := polar(int32(e>>1)%int32(len(table)), e)
			if at := len(code); at > first && e%7 == 0 {
				x = ^code[first+int(e>>3)%(at-first)] // an earlier output, complemented
			}
			code = append(code, x)
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

// stepsAccepts reports whether the kernel lets code run over rows on a
// step loop whose rows fit: code parses (newPlan's check), rows holds
// every row it names (exec's check), and every row's length passes
// fits (what the View invariant gives exec once it has picked the
// loop: a subarray has rows of one width).
func stepsAccepts(rows [][]uint64, code []int32, fits func(words int) bool) bool {
	nrows, ok := scanCode(code)
	if !ok || nrows > len(rows) {
		return false
	}
	for _, r := range rows {
		if !fits(len(r)) {
			return false
		}
	}
	return true
}

// stepGuard is the number of words guardedClone keeps past each row's
// end to catch a loop that writes beyond it.
const stepGuard = 9

// guardedClone returns a copy of store whose every row is followed by
// stepGuard words of a fixed pattern, which checkStepLoop requires to
// be left as they are.
func guardedClone(store [][]uint64) [][]uint64 {
	out := make([][]uint64, len(store))
	for i, row := range store {
		g := make([]uint64, len(row)+stepGuard)
		copy(g, row)
		for w := len(row); w < len(g); w++ {
			g[w] = 0x5a5a5a5a5a5a5a5a ^ uint64(w)
		}
		out[i] = g[:len(row)]
	}
	return out
}

// stepLoop is one step loop a fuzz target holds to an oracle.
type stepLoop struct {
	name string
	run  func(rows [][]uint64, code []int32, words int)
}

// checkStepLoop runs one case through the oracle and, when the
// kernel's checks accept it, through loop: both must leave every
// storage row, and the guard words past it, alike.
func checkStepLoop(t *testing.T, store [][]uint64, table []int, code []int32, words int, oracle, loop stepLoop, fits func(int) bool) {
	t.Helper()
	want, got := guardedClone(store), guardedClone(store)
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		oracle.run(tableRows(want, table), code, words)
		return false
	}()
	rows := tableRows(got, table)
	if !stepsAccepts(rows, code, fits) {
		return
	}
	if panicked {
		t.Fatalf("the kernel's checks accept a case %s panics on (%d words, code %v, table %v)", oracle.name, words, code, table)
	}
	loop.run(rows, code, words)
	for i := range store {
		w, g := want[i][:cap(want[i])], got[i][:cap(got[i])]
		if !slices.Equal(w, g) {
			t.Fatalf("storage row %d (%d words and %d guard words): %s left %x, %s %x (code %v, table %v)",
				i, len(store[i]), stepGuard, oracle.name, w, loop.name, g, code, table)
		}
	}
}

var (
	goSteps4  = stepLoop{"steps4", func(rows [][]uint64, code []int32, _ int) { steps4(rows, code) }}
	vecSteps4 = stepLoop{"steps4Vec", func(rows [][]uint64, code []int32, _ int) { steps4Vec(rows, code) }}
)

// FuzzSteps4 holds the AVX2 4-word step loop, which checks nothing, to
// the Go one on random row tables and encoded steps — complemented
// inputs and outputs, outputs that alias inputs, up to maxWrites
// outputs — each with at most one flaw: a short or long row, an
// out-of-range entry, a bad header or cut code. The checks newPlan
// and exec make must reject every case on which the Go loop panics,
// and on every case they accept both loops must leave identical rows.
// A long row breaks nothing here: both loops read a row's first 4
// words.
func FuzzSteps4(f *testing.F) {
	if !haveVector {
		f.Skip("no vector step loop on this CPU")
	}
	fits := func(n int) bool { return n >= narrowWords }
	rng := rand.New(rand.NewSource(4))
	accepted := 0
	const seeds = 64
	for i := 0; i < seeds; i++ {
		data := make([]byte, 8+rng.Intn(160))
		rng.Read(data)
		f.Add(data)
		store, table, code := stepsCase(data, narrowWords)
		if stepsAccepts(tableRows(store, table), code, fits) {
			accepted++
		}
	}
	if accepted == 0 || accepted == seeds {
		f.Fatalf("the kernel's checks accept %d of %d seed cases; the seeds must test both sides", accepted, seeds)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		store, table, code := stepsCase(data, narrowWords)
		checkStepLoop(t, store, table, code, narrowWords, goSteps4, vecSteps4, fits)
	})
}

// FuzzSteps holds every step loop the CPU has to steps on its Go row
// loops, on stepsCase's cases at row widths of 1 to 40 words — every
// tail length of the AVX-512 loop's masked block, alone or after whole
// blocks. Where the kernel's checks accept a case (its rows all of the
// case's width, as the View invariant makes them), steps on the AVX2
// row loops, the AVX-512 step loop and, at 4 words, both 4-word loops
// must leave the rows and the guard words past them as the oracle
// does; where the oracle panics, the checks must reject the case. The
// loops that ran and the ones skipped are logged, so a CPU without
// AVX-512 shows in a -v log.
func FuzzSteps(f *testing.F) {
	oracle := stepLoop{"steps (Go row loops)", func(rows [][]uint64, code []int32, _ int) {
		restore, _ := LoopSettings[0].Set()
		defer restore()
		steps(rows, code)
	}}
	var loops []stepLoop
	add := func(ok bool, l stepLoop) {
		if !ok {
			f.Logf("skipping %s: this CPU, or its OS, does not offer it", l.name)
			return
		}
		loops = append(loops, l)
	}
	add(haveVector, stepLoop{"steps (AVX2 row loops)", func(rows [][]uint64, code []int32, _ int) {
		restore, _ := LoopSettings[1].Set()
		defer restore()
		steps(rows, code)
	}})
	add(haveVector512, stepLoop{"stepsVec512", stepsVec512})
	add(true, goSteps4)
	add(haveVector, vecSteps4)
	var names []string
	for _, l := range loops {
		names = append(names, l.name)
	}
	f.Logf("step loops checked against %s: %v", oracle.name, names)
	rng := rand.New(rand.NewSource(45))
	accepted, seeds := 0, 0
	for _, words := range []uint8{1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 40} {
		for i := 0; i < 4; i++ {
			data := make([]byte, 8+rng.Intn(160))
			rng.Read(data)
			f.Add(words-1, data)
			store, table, code := stepsCase(data, int(words))
			if stepsAccepts(tableRows(store, table), code, func(n int) bool { return n == int(words) }) {
				accepted++
			}
			seeds++
		}
	}
	if accepted == 0 || accepted == seeds {
		f.Fatalf("the kernel's checks accept %d of %d seed cases; the seeds must test both sides", accepted, seeds)
	}
	f.Fuzz(func(t *testing.T, w uint8, data []byte) {
		words := 1 + int(w)%40
		store, table, code := stepsCase(data, words)
		fits := func(n int) bool { return n == words }
		for _, l := range loops {
			if (l.name == goSteps4.name || l.name == vecSteps4.name) && words != narrowWords {
				continue
			}
			checkStepLoop(t, store, table, code, words, oracle, l, fits)
		}
	})
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
