package kernels

import (
	"simdram"
	"simdram/internal/workload"
)

// This file ports three of the evaluation kernels — brightness,
// BitWeaving scan, TPC-H Q6 — from hand-built eager programs (one
// Engine.Op call per operation, one fresh vector per intermediate)
// onto lazy expressions over Input data leaves, submitted through a
// Server. The expression builders are pure: no System, no allocation,
// no execution — just the request shape plus its payload. That is
// what makes them servable (any free channel can run them) and
// cacheable (every request of a kernel shares one compiled plan; only
// the payload re-binds).

// BrightnessExpr is the brightness kernel as one lazy expression:
// pixels staged at 16 bits so the intermediate sum cannot wrap,
// saturation as a compare plus an in-DRAM if_else.
func BrightnessExpr(pixels []uint64, delta int) *simdram.Expr {
	px := simdram.Input(pixels, 16)
	if delta >= 0 {
		sum := px.Add(simdram.Scalar(uint64(delta), 16))
		over := sum.Greater(simdram.Scalar(255, 16)) // sum > 255
		return over.IfElse(simdram.Scalar(255, 16), sum)
	}
	dv := simdram.Scalar(uint64(-delta), 16)
	diff := px.Sub(dv)
	under := dv.Greater(px) // -delta > pixel → clamp to 0
	return under.IfElse(simdram.Scalar(0, 16), diff)
}

// BitWeavingLtExpr is the BitWeaving/V scan predicate c > code as one
// lazy expression over the code column.
func BitWeavingLtExpr(codes []uint64, c uint64, bitsWidth int) *simdram.Expr {
	return simdram.Scalar(c, bitsWidth).Greater(simdram.Input(codes, bitsWidth))
}

// TPCHQ6Expr is the Q6-style selective aggregation as one lazy
// expression: five in-DRAM comparisons, the 5-way predicate AND as an
// and_red tree (the ISA encodes at most 3 source operands per
// instruction), a 16×16→32 multiplication, and a predicated if_else.
// The final scalar sum stays host-side, as in the eager kernel:
// aggregation across SIMD lanes needs inter-column movement, which
// SIMDRAM leaves to the CPU.
func TPCHQ6Expr(t workload.LineItem, p TPCHQ6Params) *simdram.Expr {
	ship := simdram.Input(t.ShipDate, 16)
	disc := simdram.Input(t.Discount, 16)
	qty := simdram.Input(t.Quantity, 16)
	price := simdram.Input(t.ExtendedPrice, 16)

	p1 := ship.GreaterEqual(simdram.Scalar(p.DateLo, 16))
	p2 := simdram.Scalar(p.DateHi, 16).Greater(ship)
	p3 := disc.GreaterEqual(simdram.Scalar(p.DiscountLo, 16))
	p4 := simdram.Scalar(p.DiscountHi, 16).GreaterEqual(disc)
	p5 := simdram.Scalar(p.QuantityLt, 16).Greater(qty)
	pred := p1.Apply("and_red", p2, p3).Apply("and_red", p4, p5)

	rev := price.Mul(disc) // 16×16 → 32
	return pred.IfElse(rev, simdram.Scalar(0, 32))
}
