package vertical

import "simdram/internal/hostcpu"

// haveVector reports AVX2 support.
var haveVector = hostcpu.AVX2

// planes16 sets p[i], for i < 8 and, with wide set, for i < 16, to
// bit plane i of the 64 elements v: bit j of p[i] is bit i of v[j].
// Bits 16 and up of each element are ignored, and so are bits 8 and
// up when wide is unset.
//
//go:noescape
func planes16(p *[16]uint64, v *[64]uint64, wide bool)
