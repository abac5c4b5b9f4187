package kernels

import (
	"simdram"
	"simdram/internal/workload"
)

// Brightness adjusts an 8-bit image by delta with saturation at 0 and
// 255 — the paper's image-processing kernel [Gonzalez & Woods]. Pixels
// are staged as 16-bit elements so the intermediate sum cannot wrap;
// saturation is a compare plus an in-DRAM if_else (predication).
//
// BrightnessRef is the pure-Go reference.
func BrightnessRef(img workload.Image, delta int) []uint64 {
	out := make([]uint64, len(img.Pixels))
	for i, p := range img.Pixels {
		v := int(p) + delta
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		out[i] = uint64(v)
	}
	return out
}

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
