// Package workload generates deterministic synthetic datasets for the
// seven application kernels of SIMDRAM's evaluation (paper §5).
//
// Substitution note (docs/reproduction.md, "Workloads"): the paper's kernels run on their
// original datasets (ImageNet-scale images, MNIST, TPC-H tables). Kernel
// command counts are data-independent, so synthetic data exercises the
// identical code paths while keeping the repository self-contained.
package workload

import "math/rand"

// Image is an 8-bit grayscale image.
type Image struct {
	W, H   int
	Pixels []uint64 // one pixel per element, 0-255
}

// NewImage generates a deterministic image with smooth gradients plus
// noise — enough structure that brightness/saturation paths both trigger.
func NewImage(w, h int, seed int64) Image {
	rng := rand.New(rand.NewSource(seed))
	px := make([]uint64, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := (x*255/maxInt(w-1, 1) + y*255/maxInt(h-1, 1)) / 2
			v += rng.Intn(64) - 32
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			px[y*w+x] = uint64(v)
		}
	}
	return Image{W: w, H: h, Pixels: px}
}

// Digits returns n MNIST-like 8-bit digit vectors of dim pixels each,
// with labels in [0,10). Same-label digits share a base pattern so that
// nearest-neighbor classification is meaningful.
func Digits(n, dim int, seed int64) (data [][]uint64, labels []int) {
	rng := rand.New(rand.NewSource(seed))
	bases := make([][]uint64, 10)
	for c := range bases {
		bases[c] = make([]uint64, dim)
		for i := range bases[c] {
			bases[c][i] = uint64(rng.Intn(256))
		}
	}
	data = make([][]uint64, n)
	labels = make([]int, n)
	for j := range data {
		c := rng.Intn(10)
		labels[j] = c
		v := make([]uint64, dim)
		for i := range v {
			p := int(bases[c][i]) + rng.Intn(33) - 16
			if p < 0 {
				p = 0
			}
			if p > 255 {
				p = 255
			}
			v[i] = uint64(p)
		}
		data[j] = v
	}
	return data, labels
}

// LineItem is a TPC-H-like lineitem table in columnar form, sized for
// the Q6 predicate: shipdate (days), discount (percent), quantity, and
// extendedprice (cents).
type LineItem struct {
	N             int
	ShipDate      []uint64 // 16-bit days since epoch
	Discount      []uint64 // 8-bit percent 0-10
	Quantity      []uint64 // 8-bit 1-50
	ExtendedPrice []uint64 // 16-bit cents (kept small so price×discount fits 32 bits)
}

// NewLineItem generates n rows.
func NewLineItem(n int, seed int64) LineItem {
	rng := rand.New(rand.NewSource(seed))
	t := LineItem{
		N:             n,
		ShipDate:      make([]uint64, n),
		Discount:      make([]uint64, n),
		Quantity:      make([]uint64, n),
		ExtendedPrice: make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		t.ShipDate[i] = uint64(9000 + rng.Intn(2557)) // ~7 years of days
		t.Discount[i] = uint64(rng.Intn(11))
		t.Quantity[i] = uint64(1 + rng.Intn(50))
		t.ExtendedPrice[i] = uint64(100 + rng.Intn(60000))
	}
	return t
}

// Codes returns n k-bit column codes for BitWeaving-style scans.
func Codes(n, bits int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	mask := uint64(1)<<uint(bits) - 1
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64() & mask
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
