//go:build !amd64

package vertical

// haveVector is false off amd64: the stores use the block transpose.
const haveVector = false

// planes16 is the vector bit-plane gather's portable form, by the block
// transpose.
func planes16(p *[16]uint64, v *[64]uint64, wide bool) {
	var block [64]uint64
	for j, x := range v {
		block[j] = x & 0xFFFF
	}
	transposeToRows(&block, 4)
	copy(p[:], block[:16])
}
