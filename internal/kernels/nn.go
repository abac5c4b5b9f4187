package kernels

import (
	"fmt"

	"simdram"
)

// Quantized neural-network building blocks for the paper's ML kernels
// (LeNet, VGG-13, VGG-16). Activations are 8-bit unsigned, weights small
// signed integers, accumulation 32-bit — the standard integer-inference
// regime. Output pixels are SIMD lanes: each multiply-accumulate step is
// one bulk in-DRAM multiplication plus one addition/subtraction across
// every output position at once. Host code performs only data gathering
// (im2col-style shifts) and requantization, as in the paper's mapping.

// FeatureMap is a C×H×W activation tensor, one flattened channel per
// slice entry, values 0-255.
type FeatureMap struct {
	C, H, W int
	Data    [][]uint64
}

// NewFeatureMap allocates a zero feature map.
func NewFeatureMap(c, h, w int) FeatureMap {
	d := make([][]uint64, c)
	for i := range d {
		d[i] = make([]uint64, h*w)
	}
	return FeatureMap{C: c, H: h, W: w, Data: d}
}

// ConvWeights holds signed weights [outC][inC][kH*kW].
type ConvWeights struct {
	OutC, InC, K int
	W            [][][]int
}

// Requantize maps a signed 32-bit accumulator (already ReLU'd, so
// non-negative) back to 8 bits with a right shift and clamp.
func Requantize(v uint64, shift uint) uint64 {
	v >>= shift
	if v > 255 {
		return 255
	}
	return v
}

// gatherShifted builds the im2col vector: input channel ic sampled at
// kernel offset (ky,kx) for every valid output position.
func gatherShifted(in FeatureMap, ic, ky, kx, outH, outW int) []uint64 {
	out := make([]uint64, outH*outW)
	for y := 0; y < outH; y++ {
		for x := 0; x < outW; x++ {
			out[y*outW+x] = in.Data[ic][(y+ky)*in.W+(x+kx)]
		}
	}
	return out
}

// ConvReLURef is the pure-Go reference for ConvReLUSIMDRAM.
func ConvReLURef(in FeatureMap, w ConvWeights, shift uint) FeatureMap {
	outH, outW := in.H-w.K+1, in.W-w.K+1
	out := NewFeatureMap(w.OutC, outH, outW)
	for oc := 0; oc < w.OutC; oc++ {
		for y := 0; y < outH; y++ {
			for x := 0; x < outW; x++ {
				var acc int64
				for ic := 0; ic < w.InC; ic++ {
					for ky := 0; ky < w.K; ky++ {
						for kx := 0; kx < w.K; kx++ {
							acc += int64(in.Data[ic][(y+ky)*in.W+(x+kx)]) * int64(w.W[oc][ic][ky*w.K+kx])
						}
					}
				}
				if acc < 0 {
					acc = 0
				}
				out.Data[oc][y*outW+x] = Requantize(uint64(acc), shift)
			}
		}
	}
	return out
}

// ConvReLUSIMDRAM runs a valid-padding convolution + ReLU + requantize
// with all multiply-accumulates in DRAM.
func ConvReLUSIMDRAM(sys *simdram.System, in FeatureMap, w ConvWeights, shift uint) (FeatureMap, simdram.Stats, error) {
	var st simdram.Stats
	if in.C != w.InC {
		return FeatureMap{}, st, fmt.Errorf("kernels: conv expects %d input channels, have %d", w.InC, in.C)
	}
	if w.K > in.H || w.K > in.W {
		return FeatureMap{}, st, fmt.Errorf("kernels: %d×%d conv kernel is larger than its %d×%d input", w.K, w.K, in.H, in.W)
	}
	outH, outW := in.H-w.K+1, in.W-w.K+1
	out := NewFeatureMap(w.OutC, outH, outW)
	for oc := range out.Data {
		vals, err := convReLUChannel(sys, &st, in, w.K, w.W[oc], outH, outW)
		if err != nil {
			return FeatureMap{}, st, err
		}
		for i, v := range vals {
			out.Data[oc][i] = Requantize(v, shift)
		}
	}
	return out, st, nil
}

// convReLUChannel accumulates one output channel in DRAM, one batch per
// nonzero tap (acc ± shifted input × |weight|), and returns the ReLU of
// the sum.
func convReLUChannel(sys *simdram.System, st *simdram.Stats, in FeatureMap, k int, taps [][]int, outH, outW int) ([]uint64, error) {
	acc, err := newAccumulator(sys, st, outH*outW)
	if err != nil {
		return nil, err
	}
	defer acc.free()
	for ic, chTaps := range taps {
		for t, wt := range chTaps {
			if wt == 0 {
				continue
			}
			op := "addition"
			if wt < 0 {
				op, wt = "subtraction", -wt
			}
			shifted := simdram.Input(gatherShifted(in, ic, t/k, t%k, outH, outW), 16)
			prod := shifted.Mul(simdram.Scalar(uint64(wt), 16))
			if err := acc.step(acc.expr().Apply(op, prod)); err != nil {
				return nil, err
			}
		}
	}
	return load(sys, st, acc.expr().ReLU())
}

// MaxPool2Ref is the pure-Go 2×2 max-pool reference.
func MaxPool2Ref(in FeatureMap) FeatureMap {
	outH, outW := in.H/2, in.W/2
	out := NewFeatureMap(in.C, outH, outW)
	for c := 0; c < in.C; c++ {
		for y := 0; y < outH; y++ {
			for x := 0; x < outW; x++ {
				m := uint64(0)
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						if v := in.Data[c][(2*y+dy)*in.W+(2*x+dx)]; v > m {
							m = v
						}
					}
				}
				out.Data[c][y*outW+x] = m
			}
		}
	}
	return out
}

// MaxPool2SIMDRAM pools with three in-DRAM max operations over the four
// gathered corner vectors, one batch per channel.
func MaxPool2SIMDRAM(sys *simdram.System, in FeatureMap) (FeatureMap, simdram.Stats, error) {
	var st simdram.Stats
	outH, outW := in.H/2, in.W/2
	out := NewFeatureMap(in.C, outH, outW)
	corner := func(c, dy, dx int) *simdram.Expr {
		v := make([]uint64, outH*outW)
		for y := 0; y < outH; y++ {
			for x := 0; x < outW; x++ {
				v[y*outW+x] = in.Data[c][(2*y+dy)*in.W+(2*x+dx)]
			}
		}
		return simdram.Input(v, 8)
	}
	for c := range out.Data {
		m := corner(c, 0, 0).Max(corner(c, 0, 1)).Max(corner(c, 1, 0).Max(corner(c, 1, 1)))
		vals, err := load(sys, &st, m)
		if err != nil {
			return FeatureMap{}, st, err
		}
		copy(out.Data[c], vals)
	}
	return out, st, nil
}

// FCRef is the pure-Go reference for FCSIMDRAM: logits = W·x (signed).
func FCRef(x []uint64, w [][]int) []int64 {
	out := make([]int64, len(w))
	for o := range w {
		var acc int64
		for i, xi := range x {
			acc += int64(xi) * int64(w[o][i])
		}
		out[o] = acc
	}
	return out
}

// FCSIMDRAM computes a fully connected layer with output neurons as SIMD
// lanes, one batch per nonzero input. Per-lane signed weights use offset
// encoding: the stored weight is w+128 (unsigned), and the bias 128·x is
// subtracted afterwards, so an unsigned in-DRAM multiplier handles
// signed weights exactly.
func FCSIMDRAM(sys *simdram.System, x []uint64, w [][]int) ([]int64, simdram.Stats, error) {
	var st simdram.Stats
	acc, err := newAccumulator(sys, &st, len(w))
	if err != nil {
		return nil, st, err
	}
	defer acc.free()
	wCol := make([]uint64, len(w))
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		for o := range w {
			wCol[o] = uint64(w[o][i] + 128)
		}
		prod := simdram.Scalar(xi, 16).Mul(simdram.Input(wCol, 16))
		if err := acc.step(acc.expr().Add(prod).Sub(simdram.Scalar(xi*128, 32))); err != nil {
			return nil, st, err
		}
	}
	vals, err := acc.v.Load()
	if err != nil {
		return nil, st, err
	}
	out := make([]int64, len(w))
	for i, v := range vals {
		out[i] = int64(int32(uint32(v)))
	}
	return out, st, nil
}

// LeNetWeights bundles the weights of the miniature LeNet used by the
// functional test (full-scale LeNet performance comes from spec.go).
type LeNetWeights struct {
	Conv1, Conv2 ConvWeights
	FC           [][]int
	Shift        uint
}

// LeNetRef runs the reference network: conv-relu, pool, conv-relu, pool,
// flatten, FC; returns the logits.
func LeNetRef(in FeatureMap, w LeNetWeights) []int64 {
	c1 := ConvReLURef(in, w.Conv1, w.Shift)
	p1 := MaxPool2Ref(c1)
	c2 := ConvReLURef(p1, w.Conv2, w.Shift)
	p2 := MaxPool2Ref(c2)
	return FCRef(flatten(p2), w.FC)
}

// LeNetSIMDRAM runs the same network with every layer's arithmetic in
// DRAM.
func LeNetSIMDRAM(sys *simdram.System, in FeatureMap, w LeNetWeights) ([]int64, simdram.Stats, error) {
	var total simdram.Stats
	add := func(st simdram.Stats) {
		total.LatencyNs += st.LatencyNs
		total.EnergyPJ += st.EnergyPJ
		total.Commands += st.Commands
	}
	c1, st, err := ConvReLUSIMDRAM(sys, in, w.Conv1, w.Shift)
	add(st)
	if err != nil {
		return nil, total, err
	}
	p1, st, err := MaxPool2SIMDRAM(sys, c1)
	add(st)
	if err != nil {
		return nil, total, err
	}
	c2, st, err := ConvReLUSIMDRAM(sys, p1, w.Conv2, w.Shift)
	add(st)
	if err != nil {
		return nil, total, err
	}
	p2, st, err := MaxPool2SIMDRAM(sys, c2)
	add(st)
	if err != nil {
		return nil, total, err
	}
	logits, st, err := FCSIMDRAM(sys, flatten(p2), w.FC)
	add(st)
	return logits, total, err
}

func flatten(fm FeatureMap) []uint64 {
	out := make([]uint64, 0, fm.C*fm.H*fm.W)
	for _, ch := range fm.Data {
		out = append(out, ch...)
	}
	return out
}

// Argmax returns the index of the largest logit.
func Argmax(logits []int64) int {
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best
}
