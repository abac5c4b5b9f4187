package vertical

import "simdram/internal/hostcpu"

// haveVector reports AVX2 support.
var haveVector = hostcpu.AVX2

// planes32 sets p[i], for i < 8*bytes, to bit plane i of the 64
// elements v: bit j of p[i] is bit i of v[j]. bytes is 1 to 4; bits
// 8*bytes and up of each element are ignored.
//
//go:noescape
func planes32(p *[32]uint64, v *[64]uint64, bytes int)

// lanes32 is the inverse of planes32 for one word of rows: it sets
// v[j] to the width-bit element whose bit i is bit j of rows[i][wd],
// for widths 1 to 32. rows points at the first of width row slices,
// each of which must hold word wd.
//
//go:noescape
func lanes32(v *[64]uint64, rows *[]uint64, wd, width int)
