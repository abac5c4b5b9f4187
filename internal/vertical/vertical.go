// Package vertical implements SIMDRAM's vertical data layout and the
// memory-controller transposition unit.
//
// In the vertical layout all W bits of an element live in one DRAM column
// (bitline): bit i of element j is stored in row base+i at column j. Bulk
// in-DRAM computation requires this layout, while the CPU reads and
// writes data horizontally; the transposition unit converts between the
// two so both can coexist (SIMDRAM §4).
//
// Both directions have two forms. The portable one is a 64×64 block
// transpose. On AVX2 hosts, widths up to 32 bits run byte-plane
// assembly instead (planes_amd64.s): the store gathers each element
// byte of 32 elements into a vector and takes its bit planes with
// VPMOVMSKB, and the load expands each bit plane back into the bytes
// with a shuffle and compare, then widens the bytes to words. The block
// transpose stays the fallback for wider values and other hosts, and
// the tests' oracle.
package vertical

import "fmt"

// Block transposition. A block is a 64×64 bit matrix with a[r] as row r
// and bit c of a[r] as entry (r, c). The round of stride j = 1<<s
// exchanges bit s of every entry's row index with bit s of its column
// index (Hacker's Delight §7-3); the six rounds commute, and together
// they map (r, c) to (c, r). When every entry has r < W or every entry
// has c < W, for W = 1<<lw, a round of stride j ≥ W moves entries one
// way only, so it reduces to a shift-OR fold or a shift-and-mask
// expansion, and the swap rounds of stride j < W touch only rows below
// W. lw = 6 is the full transpose.

// swapMasks[s] selects the columns whose bit s is clear: the bits a
// round of stride 1<<s keeps in place in the lower row of each pair.
var swapMasks = [6]uint64{
	0x5555555555555555,
	0x3333333333333333,
	0x0F0F0F0F0F0F0F0F,
	0x00FF00FF00FF00FF,
	0x0000FFFF0000FFFF,
	0x00000000FFFFFFFF,
}

// swapRounds runs the masked-swap rounds of stride j < 1<<lw on rows
// [0, 1<<lw).
//
//simdram:zeroalloc
func swapRounds(a *[64]uint64, lw int) {
	w := uint(1) << lw
	_ = a[w-1] // bounds a[k] below, as k < w
	for s := lw - 1; s >= 0; s-- {
		j, m := uint(1)<<s, swapMasks[s]
		for k := uint(0); k < w; k = (k + j + 1) &^ j {
			t := ((a[k] >> j) ^ a[k+j]) & m
			a[k] ^= t << j
			a[k+j] ^= t
		}
	}
}

// transposeToRows transposes a block whose entries all lie in columns
// below 1<<lw (64 elements of at most 1<<lw bits, element j as row j)
// into its first 1<<lw rows: afterwards bit j of a[i] is bit i of
// element j. The remaining rows are left unspecified.
//
//simdram:zeroalloc
func transposeToRows(a *[64]uint64, lw int) {
	for s := 5; s >= lw; s-- {
		j := 1 << s
		for k := 0; k < j; k++ {
			a[k&63] |= a[(k+j)&63] << j // k+j < 64: the masks only drop bounds checks
		}
	}
	swapRounds(a, lw)
}

// transposeToLanes is the inverse of transposeToRows: it transposes a
// block whose nonzero entries all lie in rows below 1<<lw (bit i of
// element j as bit j of a[i]) so that a[j] holds element j.
//
//simdram:zeroalloc
func transposeToLanes(a *[64]uint64, lw int) {
	swapRounds(a, lw)
	for s := lw; s < 6; s++ {
		j, m := 1<<s, swapMasks[s]
		for k := 0; k < j; k++ {
			a[k+j] = (a[k] >> j) & m
			a[k] &= m
		}
	}
}

// blockLog returns the smallest lw with 1<<lw ≥ width.
func blockLog(width int) int {
	lw := 0
	for 1<<lw < width {
		lw++
	}
	return lw
}

// ToVertical converts horizontal values to the vertical layout.
// vals[j] holds element j (width significant bits, LSB first). lanes is
// the column count of the target rows (≥ len(vals), multiple of 64);
// missing elements are zero. The result has width rows of lanes/64 words:
// row i, column j holds bit i of element j.
func ToVertical(vals []uint64, width, lanes int) ([][]uint64, error) {
	if width < 1 || width > 64 || lanes%64 != 0 || lanes < len(vals) {
		return nil, fmt.Errorf("vertical: %d values of width %d do not fit %d lanes (width in [1,64], lanes a multiple of 64)",
			len(vals), width, lanes)
	}
	rows := MakeRows(width, lanes/64)
	return rows, ToVerticalInto(rows, vals, width)
}

// MakeRows allocates width vertical rows of words words each over one
// backing array: storage for the Into conversions.
func MakeRows(width, words int) [][]uint64 {
	rows := make([][]uint64, width)
	backing := make([]uint64, width*words)
	for i := range rows {
		rows[i] = backing[i*words : (i+1)*words]
	}
	return rows
}

// ToVerticalInto is ToVertical into caller-provided rows: rows[i] for
// i < width receives row i, and every such row must hold the same
// number of words (lanes/64). Lanes past len(vals) are zeroed. On AVX2
// hosts widths up to 32 run the byte-plane store, wider ones the block
// transpose.
//
//simdram:zeroalloc
func ToVerticalInto(rows [][]uint64, vals []uint64, width int) error {
	if err := checkRows(rows, width, len(vals)); err != nil {
		return err
	}
	if useVector && width <= 32 {
		storePlanes(rows[:width], vals)
		return nil
	}
	words := len(rows[0])
	lw, mask := blockLog(width), widthMask(width)
	var block [64]uint64
	for wd := 0; wd < words; wd++ {
		base := wd * 64
		if base >= len(vals) {
			for i := 0; i < width; i++ {
				rows[i][wd] = 0
			}
			continue
		}
		chunk := vals[base:min(base+64, len(vals))]
		for lane, v := range chunk {
			block[lane] = v & mask
		}
		clear(block[len(chunk):])
		transposeToRows(&block, lw)
		// Row i, column base+lane holds bit i of element base+lane.
		for i := 0; i < width; i++ {
			rows[i][wd] = block[i]
		}
	}
	return nil
}

// useVector selects the byte-plane store and load for widths up to 32.
// It is set from the CPU once; only tests flip it, to run both paths on
// one machine.
var useVector = haveVector

// storePlanes is ToVerticalInto for len(rows) ≤ 32 bits with planes32:
// per 64 lanes the rows take their bit planes, and a partial last word
// is read from a zero-padded copy.
//
//simdram:zeroalloc
func storePlanes(rows [][]uint64, vals []uint64) {
	var planes [32]uint64
	var pad [64]uint64
	bytes := (len(rows) + 7) / 8
	for wd := range rows[0] {
		base := wd * 64
		var v *[64]uint64
		switch {
		case base+64 <= len(vals):
			v = (*[64]uint64)(vals[base : base+64])
		case base < len(vals): // the one partial word
			copy(pad[:], vals[base:])
			v = &pad
		default:
			for _, row := range rows {
				row[wd] = 0
			}
			continue
		}
		planes32(&planes, v, bytes)
		for i, row := range rows {
			row[wd] = planes[i]
		}
	}
}

// ToHorizontal is the inverse of ToVertical: it reads n elements of the
// given width from vertical rows.
func ToHorizontal(rows [][]uint64, width, n int) ([]uint64, error) {
	if err := checkRows(rows, width, n); err != nil {
		return nil, err
	}
	vals := make([]uint64, n)
	return vals, ToHorizontalInto(vals, rows, width)
}

// ToHorizontalInto is ToHorizontal into caller-provided storage: it
// reads len(dst) elements of the given width from vertical rows. Lanes
// past len(dst) are not read into dst, whatever they hold. On AVX2
// hosts widths up to 32 run the byte-plane load, wider ones the block
// transpose.
//
//simdram:zeroalloc
func ToHorizontalInto(dst []uint64, rows [][]uint64, width int) error {
	if err := checkRows(rows, width, len(dst)); err != nil {
		return err
	}
	if useVector && width <= 32 {
		loadPlanes(dst, rows[:width])
		return nil
	}
	lw := blockLog(width)
	var block [64]uint64
	for wd := 0; wd*64 < len(dst); wd++ {
		for i := 0; i < width; i++ {
			block[i] = rows[i][wd]
		}
		clear(block[width : 1<<lw])
		transposeToLanes(&block, lw)
		copy(dst[wd*64:], block[:])
	}
	return nil
}

// loadPlanes is ToHorizontalInto for len(rows) ≤ 32 bits with lanes32,
// which reads each row's word straight from the rows, so every row is
// bounds-checked here, once. A whole word of elements goes straight
// into dst, a partial last one through a copy.
//
//simdram:zeroalloc
func loadPlanes(dst []uint64, rows [][]uint64) {
	words := (len(dst) + 63) / 64
	if words == 0 {
		return
	}
	for _, row := range rows {
		_ = row[words-1]
	}
	for wd := 0; wd < words; wd++ {
		out := dst[wd*64:]
		if len(out) >= 64 {
			lanes32((*[64]uint64)(out), &rows[0], wd, len(rows))
			continue
		}
		var part [64]uint64 // the one partial word
		lanes32(&part, &rows[0], wd, len(rows))
		copy(out, part[:])
	}
}

// SplatInto writes the vertical form of n copies of val into rows
// without transposing: row i (i < width) is all ones over lanes [0, n)
// when bit i of val is set, else zero. It equals ToVerticalInto of n
// copies of val.
//
//simdram:zeroalloc
func SplatInto(rows [][]uint64, val uint64, width, n int) error {
	if err := checkRows(rows, width, n); err != nil {
		return err
	}
	full, rest := n/64, widthMask(n%64)
	for i := 0; i < width; i++ {
		row := rows[i]
		clear(row)
		if val>>uint(i)&1 == 0 {
			continue
		}
		for wd := range row[:full] {
			row[wd] = ^uint64(0)
		}
		if rest != 0 {
			row[full] = rest
		}
	}
	return nil
}

// checkRows validates rows as the vertical form of n elements of the
// given width: a row per bit, each wide enough for n lanes.
func checkRows(rows [][]uint64, width, n int) error {
	if width < 1 || width > 64 || len(rows) < width {
		return fmt.Errorf("vertical: need %d rows of width in [1,64], have %d", width, len(rows))
	}
	if lanes := len(rows[0]) * 64; n > lanes {
		return fmt.Errorf("vertical: %d elements exceed %d lanes", n, lanes)
	}
	return nil
}

// toVerticalNaive is the bit-at-a-time reference used by tests.
func toVerticalNaive(vals []uint64, width, lanes int) [][]uint64 {
	words := lanes / 64
	rows := make([][]uint64, width)
	for i := range rows {
		rows[i] = make([]uint64, words)
	}
	for j, v := range vals {
		for i := 0; i < width; i++ {
			if (v>>uint(i))&1 == 1 {
				rows[i][j/64] |= uint64(1) << uint(j%64)
			}
		}
	}
	return rows
}

// toHorizontalNaive is the bit-at-a-time inverse of toVerticalNaive
// used by tests: n elements of the given width.
func toHorizontalNaive(rows [][]uint64, width, n int) []uint64 {
	vals := make([]uint64, n)
	for j := range vals {
		for i := 0; i < width; i++ {
			vals[j] |= (rows[i][j/64] >> uint(j%64) & 1) << uint(i)
		}
	}
	return vals
}

func widthMask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}
