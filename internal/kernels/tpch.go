package kernels

import (
	"simdram"
	"simdram/internal/workload"
)

// TPCHQ6Params is the Q6-style selective aggregation: revenue from rows
// whose shipdate falls in [DateLo, DateHi), discount in
// [DiscountLo, DiscountHi], and quantity < QuantityLt.
type TPCHQ6Params struct {
	DateLo, DateHi         uint64
	DiscountLo, DiscountHi uint64
	QuantityLt             uint64
}

// DefaultQ6 returns the canonical predicate constants.
func DefaultQ6() TPCHQ6Params {
	return TPCHQ6Params{DateLo: 9500, DateHi: 9865, DiscountLo: 1, DiscountHi: 3, QuantityLt: 24}
}

// TPCHQ6Ref is the pure-Go reference: Σ price×discount over selected rows.
func TPCHQ6Ref(t workload.LineItem, p TPCHQ6Params) uint64 {
	var sum uint64
	for i := 0; i < t.N; i++ {
		if t.ShipDate[i] >= p.DateLo && t.ShipDate[i] < p.DateHi &&
			t.Discount[i] >= p.DiscountLo && t.Discount[i] <= p.DiscountHi &&
			t.Quantity[i] < p.QuantityLt {
			sum += t.ExtendedPrice[i] * t.Discount[i]
		}
	}
	return sum
}

// q6Columns returns the four lineitem columns Q6 reads as 16-bit data
// leaves.
func q6Columns(t workload.LineItem) (ship, disc, qty, price *simdram.Expr) {
	return simdram.Input(t.ShipDate, 16), simdram.Input(t.Discount, 16),
		simdram.Input(t.Quantity, 16), simdram.Input(t.ExtendedPrice, 16)
}

// q6Predicate is Q6's row filter: five in-DRAM comparisons ANDed by an
// and_red tree (the ISA encodes at most 3 source operands per
// instruction).
func q6Predicate(ship, disc, qty *simdram.Expr, p TPCHQ6Params) *simdram.Expr {
	p1 := ship.GreaterEqual(simdram.Scalar(p.DateLo, 16))
	p2 := simdram.Scalar(p.DateHi, 16).Greater(ship)
	p3 := disc.GreaterEqual(simdram.Scalar(p.DiscountLo, 16))
	p4 := simdram.Scalar(p.DiscountHi, 16).GreaterEqual(disc)
	p5 := simdram.Scalar(p.QuantityLt, 16).Greater(qty)
	return p1.Apply("and_red", p2, p3).Apply("and_red", p4, p5)
}

// q6Selected is the revenue column price × discount (16×16 → 32 bits)
// where pred holds and 0 elsewhere, a predicated if_else.
func q6Selected(pred, price, disc *simdram.Expr) *simdram.Expr {
	return pred.IfElse(price.Mul(disc), simdram.Scalar(0, 32))
}

// TPCHQ6Expr is the Q6-style selective aggregation as one lazy
// expression: the predicate and the selected revenue. The final scalar
// sum stays host-side: aggregation across SIMD lanes needs
// inter-column movement, which SIMDRAM leaves to the CPU.
func TPCHQ6Expr(t workload.LineItem, p TPCHQ6Params) *simdram.Expr {
	ship, disc, qty, price := q6Columns(t)
	return q6Selected(q6Predicate(ship, disc, qty, p), price, disc)
}

// TPCHQ6SIMDRAM evaluates TPCHQ6Expr's predicate and selected revenue in
// DRAM and folds the loaded revenue column host-side. It runs as two
// batches, the predicate and then the selection over its 1-bit result:
// the compiler binds every leaf of a batch before the first instruction
// runs, and at large row counts the one-shot expression leaves the
// multiplication too few scratch rows.
func TPCHQ6SIMDRAM(sys *simdram.System, t workload.LineItem, p TPCHQ6Params) (uint64, simdram.Stats, error) {
	var st simdram.Stats
	ship, disc, qty, price := q6Columns(t)
	pred, err := materialize(sys, &st, q6Predicate(ship, disc, qty, p))
	if err != nil {
		return 0, st, err
	}
	defer pred.Free()
	vals, err := load(sys, &st, q6Selected(sys.Lazy(pred), price, disc))
	if err != nil {
		return 0, st, err
	}
	var sum uint64
	for _, v := range vals {
		sum += v
	}
	return sum, st, nil
}
