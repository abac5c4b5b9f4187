package simdram_test

// Benchmark harness: one benchmark per paper table/figure (E1-E8, see
// DESIGN.md §5 and EXPERIMENTS.md), plus micro-benchmarks of the
// framework itself. The E* benchmarks regenerate the experiment and
// report its headline number as a custom metric; run
//
//	go test -bench=. -benchmem
//
// and see cmd/simdram-bench for the full printed tables.

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"simdram"
	"simdram/internal/baseline/cpu"
	"simdram/internal/batchgen"
	"simdram/internal/dram"
	"simdram/internal/experiments"
	"simdram/internal/isa"
	"simdram/internal/kernels"
	"simdram/internal/mig"
	"simdram/internal/ops"
	"simdram/internal/reliability"
	"simdram/internal/workload"
)

func ratioCell(b *testing.B, cell string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "×"), 64)
	if err != nil {
		b.Fatalf("bad ratio cell %q: %v", cell, err)
	}
	return v
}

// BenchmarkE1CommandCounts regenerates the μProgram cost table and
// reports the maximum SIMDRAM-vs-Ambit speedup (paper: up to 5.1×).
func BenchmarkE1CommandCounts(b *testing.B) {
	var maxRatio float64
	for i := 0; i < b.N; i++ {
		tab, err := experiments.E1CommandCounts([]int{8, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
		maxRatio = 0
		for _, row := range tab.Rows {
			if r := ratioCell(b, row[len(row)-1]); r > maxRatio {
				maxRatio = r
			}
		}
	}
	b.ReportMetric(maxRatio, "max-speedup-vs-ambit")
}

// BenchmarkE2Throughput regenerates the 16-operation throughput figure
// and reports the geomean advantage over the CPU at 16 banks.
func BenchmarkE2Throughput(b *testing.B) {
	var geo float64
	for i := 0; i < b.N; i++ {
		tab, err := experiments.E2Throughput(32)
		if err != nil {
			b.Fatal(err)
		}
		geo = 1
		for _, row := range tab.Rows {
			geo *= ratioCell(b, row[7])
		}
		geo = math.Pow(geo, 1.0/float64(len(tab.Rows)))
	}
	b.ReportMetric(geo, "geomean-vs-cpu")
}

// BenchmarkE3Energy regenerates the energy-efficiency figure and reports
// the geomean advantage over the CPU (paper: 257×).
func BenchmarkE3Energy(b *testing.B) {
	var geo float64
	for i := 0; i < b.N; i++ {
		tab, err := experiments.E3Energy(32)
		if err != nil {
			b.Fatal(err)
		}
		geo = 1
		for _, row := range tab.Rows {
			geo *= ratioCell(b, row[5])
		}
		geo = math.Pow(geo, 1.0/float64(len(tab.Rows)))
	}
	b.ReportMetric(geo, "geomean-energy-vs-cpu")
}

// BenchmarkE4Kernels regenerates the seven-kernel comparison and reports
// the maximum speedup over Ambit (paper: up to 2.5×).
func BenchmarkE4Kernels(b *testing.B) {
	var maxVsAmbit float64
	for i := 0; i < b.N; i++ {
		tab, err := experiments.E4Kernels()
		if err != nil {
			b.Fatal(err)
		}
		maxVsAmbit = 0
		for _, row := range tab.Rows {
			if r := ratioCell(b, row[7]); r > maxVsAmbit {
				maxVsAmbit = r
			}
		}
	}
	b.ReportMetric(maxVsAmbit, "max-kernel-speedup-vs-ambit")
}

// BenchmarkE5Reliability regenerates the process-variation Monte Carlo
// and reports the failure rate of the smallest node at 25% variation.
func BenchmarkE5Reliability(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		nodes := reliability.Nodes()
		last := nodes[len(nodes)-1]
		res := reliability.SimulateTRA(last, reliability.Variation{CellSigma: 0.25, SASigmaMV: 5}, 50000, 7)
		rate = res.FailureRate()
	}
	b.ReportMetric(rate, "failure-rate-22nm-25pct")
}

// BenchmarkE6Area regenerates the area table and reports the die
// fraction (paper: < 1%).
func BenchmarkE6Area(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		tab := experiments.E6Area()
		total := tab.Rows[len(tab.Rows)-1][3]
		lp, rp := strings.Index(total, "("), strings.Index(total, "%")
		v, err := strconv.ParseFloat(total[lp+1:rp], 64)
		if err != nil {
			b.Fatal(err)
		}
		pct = v
	}
	b.ReportMetric(pct, "area-overhead-pct")
}

// BenchmarkE7WidthScaling regenerates the width-scaling table and
// reports division's 64/32 latency ratio (≈4, quadratic).
func BenchmarkE7WidthScaling(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tab, err := experiments.E7WidthScaling()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tab.Rows {
			if row[0] == "division" {
				v, err := strconv.ParseFloat(row[5], 64)
				if err != nil {
					b.Fatal(err)
				}
				ratio = v
			}
		}
	}
	b.ReportMetric(ratio, "div-64/32-latency-ratio")
}

// BenchmarkE8Transposition regenerates the transposition-overhead table
// and reports the largest share of pipeline time spent transposing.
func BenchmarkE8Transposition(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		tab, err := experiments.E8Transposition()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, row := range tab.Rows {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[4], "%"), 64)
			if err != nil {
				b.Fatal(err)
			}
			if v > worst {
				worst = v
			}
		}
	}
	b.ReportMetric(worst, "transpose-share-pct")
}

// BenchmarkE9Ablation regenerates the optimization-ablation table and
// reports the geomean Step-1 (MAJ-native synthesis) gain.
func BenchmarkE9Ablation(b *testing.B) {
	var geo float64
	for i := 0; i < b.N; i++ {
		tab, err := experiments.E9Ablation(16)
		if err != nil {
			b.Fatal(err)
		}
		geo = 1
		for _, row := range tab.Rows {
			geo *= ratioCell(b, row[5])
		}
		geo = math.Pow(geo, 1.0/float64(len(tab.Rows)))
	}
	b.ReportMetric(geo, "geomean-step1-gain")
}

// BenchmarkE10RowHammer regenerates the RowHammer exposure table and
// reports how many of the 16 operations exceed the DDR4 threshold under
// back-to-back execution.
func BenchmarkE10RowHammer(b *testing.B) {
	var exceeded float64
	for i := 0; i < b.N; i++ {
		tab, err := experiments.E10RowHammer()
		if err != nil {
			b.Fatal(err)
		}
		exceeded = 0
		for _, row := range tab.Rows {
			if row[4] == "yes" {
				exceeded++
			}
		}
	}
	b.ReportMetric(exceeded, "ops-exceeding-ddr4-threshold")
}

// --- framework micro-benchmarks ---

// BenchmarkSimulatorAdd32 measures the functional simulator itself:
// wall-clock time to execute one 32-bit addition μProgram across a
// full subarray batch (32768 lanes on the default geometry).
func BenchmarkSimulatorAdd32(b *testing.B) {
	sys, err := simdram.New(simdram.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	n := sys.Lanes()
	rng := rand.New(rand.NewSource(1))
	av := make([]uint64, n)
	bv := make([]uint64, n)
	for i := range av {
		av[i] = uint64(rng.Uint32())
		bv[i] = uint64(rng.Uint32())
	}
	va, _ := sys.AllocVector(n, 32)
	vb, _ := sys.AllocVector(n, 32)
	dst, _ := sys.AllocVector(n, 32)
	if err := va.Store(av); err != nil {
		b.Fatal(err)
	}
	if err := vb.Store(bv); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run("addition", dst, va, vb); err != nil {
			b.Fatal(err)
		}
	}
}

// setupBatchProgram builds the shared bank-spread workload (see
// internal/batchgen): one independent addition per (bank, subarray) of
// the default 4-bank geometry.
func setupBatchProgram(b *testing.B) (*simdram.System, isa.Program) {
	b.Helper()
	sys, err := simdram.New(simdram.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	prog, err := batchgen.Program(sys, 2)
	if err != nil {
		b.Fatal(err)
	}
	return sys, prog
}

// BenchmarkExecSerial issues the batch program one instruction at a
// time — the baseline the batched engine must beat.
func BenchmarkExecSerial(b *testing.B) {
	sys, prog := setupBatchProgram(b)
	defer sys.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range prog {
			if _, err := sys.Exec(in); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(prog))*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkExecBatch issues the same program through the batched
// engine: hazard analysis, then execution on the calling goroutine,
// with idle pool workers running bank-disjoint instructions alongside.
func BenchmarkExecBatch(b *testing.B) {
	sys, prog := setupBatchProgram(b)
	defer sys.Close()
	b.ResetTimer()
	var st simdram.BatchStats
	var err error
	for i := 0; i < b.N; i++ {
		if st, err = sys.ExecBatch(prog); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(prog))*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
	b.ReportMetric(st.Speedup(), "modeled-speedup")
}

// BenchmarkClusterExecBatch shards the bank-disjoint workload across a
// 4-channel cluster: every channel holds one segment of every vector
// and the channels execute their sub-batches concurrently. Compare the
// reported cluster-critical-path-ns against
// BenchmarkClusterSingleSystem's serial-equivalent-ns: the acceptance
// target is < 0.35×. Every call after the first replays the program
// ExecBatch prepared on the first.
func BenchmarkClusterExecBatch(b *testing.B) {
	const channels = 4
	c, err := simdram.NewCluster(simdram.DefaultClusterConfig(channels))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	prog, err := batchgen.ClusterProgram(c, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st simdram.ClusterBatchStats
	for i := 0; i < b.N; i++ {
		if st, err = c.ExecBatch(prog); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(prog))*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
	b.ReportMetric(st.CriticalPathNs, "cluster-critical-path-ns")
	b.ReportMetric(st.Speedup(), "modeled-speedup")
	b.ReportMetric(st.UtilizationSkew(), "utilization-skew")
}

// BenchmarkClusterSingleSystem runs the identical total workload (same
// element counts, same instruction stream) on one System — the
// single-channel baseline of the cluster benchmark pair. Its
// serial-equivalent-ns metric is the denominator of the cluster
// scaling ratio.
func BenchmarkClusterSingleSystem(b *testing.B) {
	const channels = 4
	sys, err := simdram.New(simdram.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	prog, err := batchgen.ProgramScaled(sys, 2, channels)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st simdram.BatchStats
	for i := 0; i < b.N; i++ {
		if st, err = sys.ExecBatch(prog); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(prog))*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
	b.ReportMetric(st.BusyNs, "serial-equivalent-ns")
	b.ReportMetric(st.CriticalPathNs, "critical-path-ns")
}

// BenchmarkClusterExecBatchMiss is the cluster host path for callers
// that never send the same program twice in a row, so Cluster.ExecBatch
// shards and prepares on every call: "run" alternates two one-instruction
// Cluster.Run operations over a full segment per channel, "program"
// alternates BenchmarkClusterExecBatch's program with its subtraction
// twin.
func BenchmarkClusterExecBatchMiss(b *testing.B) {
	const channels = 4
	c, err := simdram.NewCluster(simdram.DefaultClusterConfig(channels))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	n := c.Config().Channel.DRAM.Cols * channels
	vecs := make([]*simdram.ShardedVector, 3)
	for i := range vecs {
		if vecs[i], err = c.AllocShardedVector(n, 8); err != nil {
			b.Fatal(err)
		}
	}
	prog, err := batchgen.ClusterProgram(c, 2)
	if err != nil {
		b.Fatal(err)
	}
	sub := slices.Clone(prog)
	for i := range sub {
		sub[i].Op = isa.FromOp(ops.OpSub)
	}
	b.Run("run", func(b *testing.B) {
		opNames := [2]string{"addition", "subtraction"}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Run(opNames[i%2], vecs[2], vecs[0], vecs[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("program", func(b *testing.B) {
		progs := [2]isa.Program{prog, sub}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.ExecBatch(progs[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSynthesis measures Step 1+2 cost for a representative set.
func BenchmarkSynthesis(b *testing.B) {
	for _, name := range []string{"addition", "greater", "multiplication"} {
		d, err := ops.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/32", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ops.Synthesize(d, 32, 0, ops.VariantSIMDRAM); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMIGOptimize measures the Step-1 rewriter on an 8-bit
// multiplier MIG.
func BenchmarkMIGOptimize(b *testing.B) {
	d, err := ops.ByName("multiplication")
	if err != nil {
		b.Fatal(err)
	}
	circuit, err := d.Build(8, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := mig.FromCircuit(circuit)
		if err != nil {
			b.Fatal(err)
		}
		m.Optimize(mig.DefaultOptimize())
	}
}

// BenchmarkKernelTPCH measures the full in-simulator TPC-H kernel.
func BenchmarkKernelTPCH(b *testing.B) {
	cfg := simdram.DefaultConfig()
	table := workload.NewLineItem(50000, 2)
	p := kernels.DefaultQ6()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := simdram.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := kernels.TPCHQ6SIMDRAM(sys, table, p); err != nil {
			b.Fatal(err)
		}
		sys.Close()
	}
}

// BenchmarkCPUBaseline measures the golden functional path, which is
// also the CPU baseline's semantics.
func BenchmarkCPUBaseline(b *testing.B) {
	d, err := ops.ByName("addition")
	if err != nil {
		b.Fatal(err)
	}
	n := 1 << 16
	rng := rand.New(rand.NewSource(1))
	a := make([]uint64, n)
	c := make([]uint64, n)
	for i := range a {
		a[i] = uint64(rng.Uint32())
		c[i] = uint64(rng.Uint32())
	}
	b.SetBytes(int64(n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.Run(d, 32, [][]uint64{a, c})
	}
}

// BenchmarkAblation reports the command-count benefit of each framework
// optimization on 16-bit addition (DESIGN.md §7).
func BenchmarkAblation(b *testing.B) {
	d, err := ops.ByName("addition")
	if err != nil {
		b.Fatal(err)
	}
	tm := dram.DDR4_2400()
	variants := []struct {
		name string
		v    ops.Variant
	}{
		{"full", ops.VariantSIMDRAM},
		{"no-mig-optimize", ops.VariantNoOptimize},
		{"no-row-reuse", ops.VariantNoReuse},
		{"ambit", ops.VariantAmbit},
	}
	for _, variant := range variants {
		b.Run(variant.name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				s, err := ops.Synthesize(d, 16, 0, variant.v)
				if err != nil {
					b.Fatal(err)
				}
				lat = s.Program.LatencyNs(tm)
			}
			b.ReportMetric(lat, "uprogram-ns")
		})
	}
}
