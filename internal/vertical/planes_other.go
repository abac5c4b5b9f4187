//go:build !amd64

package vertical

import "unsafe"

// haveVector is false off amd64: the conversions use the block
// transpose.
const haveVector = false

// planes32 is the vector bit-plane store's portable form, by the block
// transpose.
func planes32(p *[32]uint64, v *[64]uint64, bytes int) {
	var block [64]uint64
	mask := widthMask(8 * bytes)
	for j, x := range v {
		block[j] = x & mask
	}
	transposeToRows(&block, 5)
	copy(p[:], block[:32])
}

// lanes32 is the vector bit-plane load's portable form, by the block
// transpose.
func lanes32(v *[64]uint64, rows *[]uint64, wd, width int) {
	for i, row := range unsafe.Slice(rows, width) {
		v[i] = row[wd]
	}
	clear(v[width:32])
	transposeToLanes(v, 5)
}
