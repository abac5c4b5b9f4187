package kernels

import "simdram/internal/workload"

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
