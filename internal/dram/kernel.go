package dram

// mask returns the word a plan row entry's polarity XORs in: all ones
// for a complemented entry.
func mask(x int32) uint64 { return uint64(int64(x >> 31)) }

// vectorMinWords is the row width, in words, from which the row loops
// use vector instructions: below it the call costs more than it saves.
const vectorMinWords = 8

// useVector selects the vector row loops and the vector 4-word step
// loop: AVX2 on amd64. It is set from the CPU once; only tests flip it,
// to run every path on one machine.
var useVector = haveVector

// useVector512 selects, with useVector, the AVX-512 step loop for rows
// of every width but narrowWords: one pass per step, storing every
// output as it computes. The row loops and the 4-word step loop have
// no AVX-512 form. Like useVector it is set from the CPU once, and only
// tests flip it.
var useVector512 = haveVector512

// majRow models a triple-row activation on a lowered step: d gets the
// bitwise majority of a⊕ma, b⊕mb and c⊕mc, complemented by md. d may
// be one of a, b and c: each word is read before it is written. Rows
// of vectorMinWords words or more run the AVX2 loop, where the CPU has
// it, and the Go loop finishes their tail of fewer than 4 words. Only
// steps calls it: on an AVX-512 host the wide step loop runs instead.
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
		d[k] = maj(a[k]^ma, b[k]^mb, c[k]^mc) ^ md
	}
}

// maj returns the bitwise majority of x, y and z.
func maj(x, y, z uint64) uint64 { return x&y | z&(x|y) }

// xorRow sets d to s⊕m: a copy, or with m all ones a complement. d may
// be s. A complement picks its loop as majRow does.
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
