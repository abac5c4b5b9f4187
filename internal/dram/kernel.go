package dram

// mask returns the word a plan row entry's polarity XORs in: all ones
// for a complemented entry.
func mask(x int32) uint64 { return uint64(int64(x >> 31)) }

// vectorMinWords is the row width, in words, from which the row loops
// use vector instructions: below it the call costs more than it saves.
const vectorMinWords = 8

// useVector selects the vector row loops. It is set from the CPU once;
// only tests flip it, to run both paths on one machine.
var useVector = haveVector

// majRow models a triple-row activation on a lowered step: d gets the
// bitwise majority of a⊕ma, b⊕mb and c⊕mc, complemented by md. d may
// be one of a, b and c: each word is read before it is written.
func majRow(d, a, b, c []uint64, ma, mb, mc, md uint64) {
	n := len(d)
	a, b, c = a[:n], b[:n], c[:n]
	i := 0
	if useVector && n >= vectorMinWords {
		i = n &^ 3
		majVector(d[:i], a[:i], b[:i], c[:i], ma, mb, mc, md)
	}
	majGo(d[i:], a[i:], b[i:], c[i:], ma, mb, mc, md)
}

// majGo is majRow's portable loop.
func majGo(d, a, b, c []uint64, ma, mb, mc, md uint64) {
	a, b, c = a[:len(d)], b[:len(d)], c[:len(d)]
	for k := range d {
		x, y, z := a[k]^ma, b[k]^mb, c[k]^mc
		d[k] = (x&y | z&(x|y)) ^ md
	}
}

// xorRow sets d to s⊕m: a copy, or with m all ones a complement. d may
// be s.
func xorRow(d, s []uint64, m uint64) {
	if m == 0 {
		copy(d, s)
		return
	}
	n := len(d)
	s = s[:n]
	i := 0
	if useVector && n >= vectorMinWords {
		i = n &^ 3
		xorVector(d[:i], s[:i], m)
	}
	xorGo(d[i:], s[i:], m)
}

// xorGo is xorRow's portable loop.
func xorGo(d, s []uint64, m uint64) {
	s = s[:len(d)]
	for k := range d {
		d[k] = s[k] ^ m
	}
}
