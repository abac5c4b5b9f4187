package kernels

import (
	"math/rand"
	"testing"

	"simdram"
	"simdram/internal/baseline/cpu"
	"simdram/internal/baseline/gpu"
	"simdram/internal/dram"
	"simdram/internal/ops"
	"simdram/internal/workload"
)

// kernelSystem returns a system with enough data rows for kernel
// pipelines: 2 banks × 2 subarrays of 512 × 256.
func kernelSystem(t testing.TB) *simdram.System {
	t.Helper()
	cfg := simdram.DefaultConfig()
	cfg.DRAM.Cols = 256
	cfg.DRAM.Banks = 2
	cfg.DRAM.SubarraysPerBank = 2
	sys, err := simdram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestBrightnessMatchesRef(t *testing.T) {
	img := workload.NewImage(20, 25, 1)
	for _, delta := range []int{40, 200, -60, -300, 0} {
		sys := kernelSystem(t)
		got, st, err := brightnessSIMDRAM(sys, img, delta)
		if err != nil {
			t.Fatalf("delta %d: %v", delta, err)
		}
		want := BrightnessRef(img, delta)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("delta %d pixel %d: dram=%d ref=%d (in=%d)", delta, i, got[i], want[i], img.Pixels[i])
			}
		}
		if st.Commands == 0 {
			t.Error("kernel must account commands")
		}
	}
}

func TestTPCHQ6MatchesRef(t *testing.T) {
	table := workload.NewLineItem(700, 2)
	p := DefaultQ6()
	sys := kernelSystem(t)
	got, st, err := TPCHQ6SIMDRAM(sys, table, p)
	if err != nil {
		t.Fatal(err)
	}
	want := TPCHQ6Ref(table, p)
	if got != want {
		t.Fatalf("revenue: dram=%d ref=%d", got, want)
	}
	if want == 0 {
		t.Fatal("test data selects no rows; predicate too tight to be meaningful")
	}
	if st.LatencyNs <= 0 {
		t.Error("kernel must account latency")
	}
}

func TestBitWeavingScans(t *testing.T) {
	codes := workload.Codes(900, 4, 3)
	sys := kernelSystem(t)
	got, _, err := BitWeavingLtSIMDRAM(sys, codes, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := BitWeavingLtRef(codes, 9); got != want {
		t.Fatalf("lt scan: dram=%d ref=%d", got, want)
	}
	got, _, err = BitWeavingBetweenSIMDRAM(sys, codes, 4, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := BitWeavingBetweenRef(codes, 4, 11); got != want {
		t.Fatalf("between scan: dram=%d ref=%d", got, want)
	}
}

func TestKNNDistancesAndClassify(t *testing.T) {
	all, allLabels := workload.Digits(155, 12, 4)
	train, labels := all[:150], allLabels[:150]
	queries, qLabels := all[150:], allLabels[150:]
	sys := kernelSystem(t)
	dist, _, err := KNNDistancesSIMDRAM(sys, train, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	want := knnRef(train, queries[0])
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("distance %d: dram=%d ref=%d", i, dist[i], want[i])
		}
	}
	// Classification should beat chance comfortably on clustered digits.
	correct := 0
	for q := range queries {
		sys := kernelSystem(t)
		label, _, err := KNNClassify(sys, train, labels, queries[q])
		if err != nil {
			t.Fatal(err)
		}
		if label == qLabels[q] {
			correct++
		}
	}
	if correct < 4 {
		t.Errorf("kNN classified %d/5 clustered digits; expected ≥4", correct)
	}
}

func randomConvWeights(rng *rand.Rand, outC, inC, k int) ConvWeights {
	w := ConvWeights{OutC: outC, InC: inC, K: k, W: make([][][]int, outC)}
	for oc := range w.W {
		w.W[oc] = make([][]int, inC)
		for ic := range w.W[oc] {
			taps := make([]int, k*k)
			for i := range taps {
				taps[i] = rng.Intn(15) - 7
			}
			w.W[oc][ic] = taps
		}
	}
	return w
}

func randomInput(rng *rand.Rand, c, h, w int) FeatureMap {
	fm := NewFeatureMap(c, h, w)
	for ci := range fm.Data {
		for i := range fm.Data[ci] {
			fm.Data[ci][i] = uint64(rng.Intn(256))
		}
	}
	return fm
}

func TestConvReLUMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randomInput(rng, 2, 9, 9)
	w := randomConvWeights(rng, 2, 2, 3)
	sys := kernelSystem(t)
	got, st, err := ConvReLUSIMDRAM(sys, in, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := ConvReLURef(in, w, 4)
	for c := range want.Data {
		for i := range want.Data[c] {
			if got.Data[c][i] != want.Data[c][i] {
				t.Fatalf("channel %d pixel %d: dram=%d ref=%d", c, i, got.Data[c][i], want.Data[c][i])
			}
		}
	}
	if st.Commands == 0 {
		t.Error("conv must account commands")
	}
}

func TestMaxPoolMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := randomInput(rng, 3, 8, 8)
	sys := kernelSystem(t)
	got, _, err := MaxPool2SIMDRAM(sys, in)
	if err != nil {
		t.Fatal(err)
	}
	want := MaxPool2Ref(in)
	for c := range want.Data {
		for i := range want.Data[c] {
			if got.Data[c][i] != want.Data[c][i] {
				t.Fatalf("channel %d pixel %d: dram=%d ref=%d", c, i, got.Data[c][i], want.Data[c][i])
			}
		}
	}
}

func TestFCMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]uint64, 12)
	for i := range x {
		x[i] = uint64(rng.Intn(256))
	}
	w := make([][]int, 10)
	for o := range w {
		w[o] = make([]int, len(x))
		for i := range w[o] {
			w[o][i] = rng.Intn(255) - 127 // full signed-weight range
		}
	}
	sys := kernelSystem(t)
	got, _, err := FCSIMDRAM(sys, x, w)
	if err != nil {
		t.Fatal(err)
	}
	want := FCRef(x, w)
	for o := range want {
		if got[o] != want[o] {
			t.Fatalf("neuron %d: dram=%d ref=%d", o, got[o], want[o])
		}
	}
}

func TestLeNetEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	in := randomInput(rng, 1, 14, 14)
	weights := LeNetWeights{
		Conv1: randomConvWeights(rng, 2, 1, 3),
		Conv2: randomConvWeights(rng, 3, 2, 3),
		FC:    make([][]int, 10),
		Shift: 5,
	}
	for o := range weights.FC {
		weights.FC[o] = make([]int, 3*2*2)
		for i := range weights.FC[o] {
			weights.FC[o][i] = rng.Intn(15) - 7
		}
	}
	sys := kernelSystem(t)
	got, st, err := LeNetSIMDRAM(sys, in, weights)
	if err != nil {
		t.Fatal(err)
	}
	want := LeNetRef(in, weights)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: dram=%d ref=%d", i, got[i], want[i])
		}
	}
	if Argmax(got) != Argmax(want) {
		t.Error("classification mismatch")
	}
	if st.Commands == 0 || st.EnergyPJ <= 0 {
		t.Error("network must account cost")
	}
}

// TestVGGBlockEndToEnd runs a VGG-style block — two stacked 3×3
// convolutions followed by a 2×2 max-pool — entirely through the in-DRAM
// building blocks, the functional spot check behind the VGG-13/16
// performance models (DESIGN.md §2 substitution).
func TestVGGBlockEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := randomInput(rng, 2, 10, 10)
	w1 := randomConvWeights(rng, 3, 2, 3)
	w2 := randomConvWeights(rng, 2, 3, 3)
	sys := kernelSystem(t)

	c1, _, err := ConvReLUSIMDRAM(sys, in, w1, 5)
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := ConvReLUSIMDRAM(sys, c1, w2, 5)
	if err != nil {
		t.Fatal(err)
	}
	pooled, st, err := MaxPool2SIMDRAM(sys, c2)
	if err != nil {
		t.Fatal(err)
	}

	r1 := ConvReLURef(in, w1, 5)
	r2 := ConvReLURef(r1, w2, 5)
	want := MaxPool2Ref(r2)
	if pooled.C != want.C || pooled.H != want.H || pooled.W != want.W {
		t.Fatalf("shape mismatch: got %dx%dx%d want %dx%dx%d",
			pooled.C, pooled.H, pooled.W, want.C, want.H, want.W)
	}
	for c := range want.Data {
		for i := range want.Data[c] {
			if pooled.Data[c][i] != want.Data[c][i] {
				t.Fatalf("channel %d pixel %d: dram=%d ref=%d", c, i, pooled.Data[c][i], want.Data[c][i])
			}
		}
	}
	if st.Commands == 0 {
		t.Error("block must account commands")
	}
}

func TestPaperSpecsEvaluate(t *testing.T) {
	cfg := dram.PaperConfig()
	cpuCfg := cpu.Skylake()
	gpuCfg := gpu.TitanV()
	for _, spec := range PaperKernels() {
		sd, err := SIMDRAMPerf(spec, cfg, 16, ops.VariantSIMDRAM)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		am, err := SIMDRAMPerf(spec, cfg, 16, ops.VariantAmbit)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := CPUPerf(spec, cpuCfg)
		if err != nil {
			t.Fatal(err)
		}
		gp, err := GPUPerf(spec, gpuCfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []PerfResult{sd, am, cp, gp} {
			if r.TimeNs <= 0 || r.EnergyPJ <= 0 {
				t.Fatalf("%s: non-positive perf result %+v", spec.Name, r)
			}
		}
		// Paper's headline orderings: SIMDRAM (16 banks) is at least as
		// fast as Ambit and far more energy-efficient than the CPU.
		if sd.TimeNs > am.TimeNs {
			t.Errorf("%s: SIMDRAM slower than Ambit (%.2e vs %.2e ns)", spec.Name, sd.TimeNs, am.TimeNs)
		}
		// MAC-heavy kernels pay O(W²) activations per multiplication, so
		// their energy advantage is smaller than the 16-operation average
		// (E3 asserts the ≫100× band there); ≥5× must still hold.
		if cp.EnergyPJ/sd.EnergyPJ < 5 {
			t.Errorf("%s: CPU/SIMDRAM energy ratio %.1f, expected ≥ 5", spec.Name, cp.EnergyPJ/sd.EnergyPJ)
		}
		if sd.TimeNs > cp.TimeNs {
			t.Errorf("%s: SIMDRAM slower than CPU", spec.Name)
		}
		t.Logf("%-11s time: simdram %.3es ambit %.3es cpu %.3es gpu %.3es | energy ratio cpu/simdram %.0f×",
			spec.Name, sd.TimeNs/1e9, am.TimeNs/1e9, cp.TimeNs/1e9, gp.TimeNs/1e9, cp.EnergyPJ/sd.EnergyPJ)
	}
}

// brightnessSIMDRAM runs the brightness kernel eagerly in DRAM, one
// Engine.Op per operation, and returns the adjusted
// pixels plus the accumulated cost.
func brightnessSIMDRAM(sys *simdram.System, img workload.Image, delta int) ([]uint64, simdram.Stats, error) {
	e := NewEngine(sys, len(img.Pixels))
	px, err := e.FromData(img.Pixels, 16)
	if err != nil {
		return nil, e.Stats, err
	}
	defer px.Free()

	var result *simdram.Vector
	if delta >= 0 {
		dv, err := e.Const(uint64(delta), 16)
		if err != nil {
			return nil, e.Stats, err
		}
		defer dv.Free()
		sum, err := e.Op("addition", px, dv)
		if err != nil {
			return nil, e.Stats, err
		}
		defer sum.Free()
		c255, err := e.Const(255, 16)
		if err != nil {
			return nil, e.Stats, err
		}
		defer c255.Free()
		over, err := e.Op("greater", sum, c255) // sum > 255
		if err != nil {
			return nil, e.Stats, err
		}
		defer over.Free()
		result, err = e.Op("if_else", c255, sum, over)
		if err != nil {
			return nil, e.Stats, err
		}
	} else {
		dv, err := e.Const(uint64(-delta), 16)
		if err != nil {
			return nil, e.Stats, err
		}
		defer dv.Free()
		diff, err := e.Op("subtraction", px, dv)
		if err != nil {
			return nil, e.Stats, err
		}
		defer diff.Free()
		under, err := e.Op("greater", dv, px) // -delta > pixel → clamp to 0
		if err != nil {
			return nil, e.Stats, err
		}
		defer under.Free()
		zero, err := e.Const(0, 16)
		if err != nil {
			return nil, e.Stats, err
		}
		defer zero.Free()
		result, err = e.Op("if_else", zero, diff, under)
		if err != nil {
			return nil, e.Stats, err
		}
	}
	defer result.Free()
	out, err := result.Load()
	return out, e.Stats, err
}

// knnRef returns the L1 distances of every training point to the query.
func knnRef(train [][]uint64, query []uint64) []uint64 {
	n := len(train)
	dist := make([]uint64, n)
	for j := 0; j < n; j++ {
		var d uint64
		for i := range query {
			a, b := train[j][i], query[i]
			if a > b {
				d += a - b
			} else {
				d += b - a
			}
		}
		dist[j] = d
	}
	return dist
}
