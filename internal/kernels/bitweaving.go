package kernels

import "simdram"

// BitWeaving (Li & Patel, SIGMOD 2013) scans a column of narrow codes
// with a comparison predicate, producing a result bit-vector. SIMDRAM's
// vertical layout is exactly BitWeaving/V: code bit i of every element in
// one row, so a k-bit scan is a k-step in-DRAM comparison regardless of
// the column's length.

// BitWeavingLtRef counts codes strictly below c (pure Go).
func BitWeavingLtRef(codes []uint64, c uint64) int {
	n := 0
	for _, v := range codes {
		if v < c {
			n++
		}
	}
	return n
}

// BitWeavingLtExpr is the BitWeaving/V scan predicate c > code as one
// lazy expression over the code column.
func BitWeavingLtExpr(codes []uint64, c uint64, bitsWidth int) *simdram.Expr {
	return simdram.Scalar(c, bitsWidth).Greater(simdram.Input(codes, bitsWidth))
}

// BitWeavingLtSIMDRAM performs the scan in DRAM (predicate c > code),
// loads the 1-bit result vector, and popcounts it host-side like a scan
// consumer would. bitsWidth is the code width.
func BitWeavingLtSIMDRAM(sys *simdram.System, codes []uint64, c uint64, bitsWidth int) (int, simdram.Stats, error) {
	var st simdram.Stats
	vals, err := load(sys, &st, BitWeavingLtExpr(codes, c, bitsWidth))
	return ones(vals), st, err
}

// BitWeavingBetweenSIMDRAM scans lo <= code < hi using two comparisons
// and an in-DRAM AND — the two-sided range predicate of the paper's
// database workloads.
func BitWeavingBetweenSIMDRAM(sys *simdram.System, codes []uint64, lo, hi uint64, bitsWidth int) (int, simdram.Stats, error) {
	var st simdram.Stats
	col := simdram.Input(codes, bitsWidth)
	ge := col.GreaterEqual(simdram.Scalar(lo, bitsWidth))
	lt := simdram.Scalar(hi, bitsWidth).Greater(col)
	vals, err := load(sys, &st, ge.Apply("and_red", lt))
	return ones(vals), st, err
}

// BitWeavingBetweenRef is the pure-Go reference for the range scan.
func BitWeavingBetweenRef(codes []uint64, lo, hi uint64) int {
	n := 0
	for _, v := range codes {
		if v >= lo && v < hi {
			n++
		}
	}
	return n
}

// ones counts the set lanes of a loaded 1-bit result vector.
func ones(vals []uint64) int {
	n := 0
	for _, v := range vals {
		n += int(v & 1)
	}
	return n
}
