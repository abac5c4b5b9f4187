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

// steps4Case decodes FuzzSteps4's input into storage rows, a row table
// over them (table[i] is row i's storage row) and encoded steps. The
// table has more entries than there is storage, so rows alias as a
// view's virtual rows may; a storage row is rarely short or long, a
// row entry rarely out of range, a header rarely negative or longer
// than the code, and the code's last step may be cut short.
func steps4Case(data []byte) (store [][]uint64, table []int, code []int32) {
	src := byteSource(data)
	rng := rand.New(rand.NewSource(int64(src.next())<<8 | int64(src.next())))
	store = make([][]uint64, 1+int(src.next())%8)
	for i := range store {
		n := narrowWords
		switch x := src.next(); x % 16 {
		case 0:
			n = int(x>>4) % narrowWords
		case 1:
			n = narrowWords + 2
		}
		store[i] = make([]uint64, n)
		for w := range store[i] {
			store[i][w] = rng.Uint64()
		}
	}
	table = make([]int, 1+int(src.next())%12)
	for i := range table {
		table[i] = int(src.next()) % len(store)
	}
	entry := func() int32 {
		e := src.next()
		r := int32(e>>1) % int32(len(table))
		if e&0x7e == 0x7e {
			r = int32(len(table)) + int32(e>>7)
		}
		if e&1 != 0 {
			r = ^r
		}
		return r
	}
	cut := int(src.next()) % 8
	for steps := 0; len(src) > 0 && steps < 64; steps++ {
		h := src.next()
		maj, n := int32(h&stepMaj), int32(h>>1)%(maxWrites+1)
		header := n<<1 | maj
		switch h {
		case 0xfe:
			header = -2
		case 0xff:
			header = 1 << 20
		}
		code = append(code, header)
		for k := int32(0); k < 1+2*maj+n; k++ {
			code = append(code, entry())
		}
	}
	if cut < 3 && len(code) > 0 {
		code = code[:len(code)-1-cut%len(code)]
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

// checkSteps4 runs one FuzzSteps4 input through both step loops.
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
	if ok := steps4Vec(tableRows(vecStore, table), code); ok == panicked {
		t.Fatalf("steps4 panicked %v, steps4Vec returned %v (code %v, table %v)", panicked, ok, code, table)
	}
	for i := range store {
		if !slices.Equal(goStore[i], vecStore[i]) {
			t.Fatalf("storage row %d: steps4 left %x, steps4Vec %x (code %v, table %v)", i, goStore[i], vecStore[i], code, table)
		}
	}
}

// FuzzSteps4 holds the AVX2 4-word step loop to the Go one on random
// row tables and encoded steps — complemented inputs and outputs,
// outputs that alias inputs, up to maxWrites outputs, out-of-range and
// short rows, malformed headers and cut code: both must leave identical
// rows, and the vector loop must return false exactly when the Go loop
// panics.
func FuzzSteps4(f *testing.F) {
	if !haveVector {
		f.Skip("no vector step loop on this CPU")
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 64; i++ {
		data := make([]byte, 8+rng.Intn(160))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(checkSteps4)
}
