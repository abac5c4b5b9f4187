package kernels

import (
	"simdram"
)

// kNN classifies a query against a training set by L1 (Manhattan)
// distance [Lee, Neural Computation 1991]. Training points are SIMD
// lanes: one vector per feature dimension, so each distance update is
// three bulk in-DRAM operations (subtract, abs, accumulate) over every
// training point at once. The final arg-min (top-k) is a host-side scan,
// as in the paper.

// KNNDistancesSIMDRAM computes the distance vector in DRAM. Features are
// staged at 32 bits so the signed difference and the accumulated sum both
// fit regardless of dimension count.
func KNNDistancesSIMDRAM(sys *simdram.System, train [][]uint64, query []uint64) ([]uint64, simdram.Stats, error) {
	n := len(train)
	dims := len(query)
	e := NewEngine(sys, n)
	fail := func(err error) ([]uint64, simdram.Stats, error) { return nil, e.Stats, err }

	acc, err := e.Const(0, 32)
	if err != nil {
		return fail(err)
	}
	col := make([]uint64, n)
	for i := 0; i < dims; i++ {
		for j := 0; j < n; j++ {
			col[j] = train[j][i]
		}
		tv, err := e.FromData(col, 32)
		if err != nil {
			return fail(err)
		}
		qv, err := e.Const(query[i], 32)
		if err != nil {
			return fail(err)
		}
		diff, err := e.Op("subtraction", tv, qv)
		FreeAll(tv, qv)
		if err != nil {
			return fail(err)
		}
		ad, err := e.Op("abs", diff)
		diff.Free()
		if err != nil {
			return fail(err)
		}
		next, err := e.Op("addition", acc, ad)
		ad.Free()
		if err != nil {
			return fail(err)
		}
		Replace(&acc, next)
	}
	defer acc.Free()
	dist, err := acc.Load()
	return dist, e.Stats, err
}

// Argmin returns the index of the smallest distance.
func Argmin(dist []uint64) int {
	best := 0
	for i, d := range dist {
		if d < dist[best] {
			best = i
		}
	}
	return best
}

// KNNClassify runs the full kernel: distances in DRAM, arg-min on host,
// returning the predicted label.
func KNNClassify(sys *simdram.System, train [][]uint64, labels []int, query []uint64) (int, simdram.Stats, error) {
	dist, st, err := KNNDistancesSIMDRAM(sys, train, query)
	if err != nil {
		return 0, st, err
	}
	return labels[Argmin(dist)], st, nil
}
