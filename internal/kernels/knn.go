package kernels

import "simdram"

// kNN classifies a query against a training set by L1 (Manhattan)
// distance [Lee, Neural Computation 1991]. Training points are SIMD
// lanes: one vector per feature dimension, so each distance update is
// three bulk in-DRAM operations (subtract, abs, accumulate) over every
// training point at once. The final arg-min (top-k) is a host-side scan,
// as in the paper.

// KNNDistancesSIMDRAM computes the distance vector in DRAM, one batch
// per feature dimension. Features are staged at 32 bits so the signed
// difference and the accumulated sum both fit regardless of dimension
// count.
func KNNDistancesSIMDRAM(sys *simdram.System, train [][]uint64, query []uint64) ([]uint64, simdram.Stats, error) {
	var st simdram.Stats
	acc, err := newAccumulator(sys, &st, len(train))
	if err != nil {
		return nil, st, err
	}
	defer acc.free()
	col := make([]uint64, len(train))
	for i, q := range query {
		for j := range train {
			col[j] = train[j][i]
		}
		d := simdram.Input(col, 32).Sub(simdram.Scalar(q, 32)).Abs()
		if err := acc.step(acc.expr().Add(d)); err != nil {
			return nil, st, err
		}
	}
	dist, err := acc.v.Load()
	return dist, st, err
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
