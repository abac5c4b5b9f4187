// Package experiments regenerates every table and figure of SIMDRAM's
// evaluation (E1–E10 and E9b, listed in docs/reproduction.md). Each
// experiment returns a Table that cmd/simdram-bench prints and
// testdata/tables.golden records; the package tests pin every table
// byte for byte and assert the headline shapes (who wins, by roughly
// what factor).
package experiments

import (
	"fmt"
	"math"
	"strings"

	"simdram/internal/area"
	"simdram/internal/baseline/cpu"
	"simdram/internal/baseline/gpu"
	"simdram/internal/ctrl"
	"simdram/internal/dram"
	"simdram/internal/kernels"
	"simdram/internal/ops"
	"simdram/internal/reliability"
	"simdram/internal/vertical"
)

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for _, w := range widths {
		sb.WriteString(strings.Repeat("-", w) + "  ")
	}
	sb.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// testN is the operand count used for N-ary reductions throughout the
// evaluation (the paper demonstrates >2-input logic operations).
const testN = 3

func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

func fmtSI(v float64) string {
	switch {
	case v >= 1e12:
		return fmt.Sprintf("%.2fT", v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fk", v/1e3)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// E1CommandCounts reproduces the μProgram cost table: DRAM commands per
// operation for SIMDRAM's MAJ/NOT flow vs the Ambit AND/OR/NOT baseline.
func E1CommandCounts(widths []int) (Table, error) {
	t := Table{
		ID:     "E1",
		Title:  "μProgram command counts per operation (SIMDRAM vs Ambit)",
		Header: []string{"operation", "width", "simdram AAP", "simdram AP", "simdram ns", "ambit cmds", "ambit ns", "speedup"},
		Notes: []string{
			"latency on one subarray under DDR4-2400 (AAP ≈ 78 ns, AP ≈ 46 ns)",
			"Ambit commands are all AAP-latency (4 per gate, fused TRA→dst)",
		},
	}
	tm := dram.DDR4_2400()
	for _, d := range ops.PaperSet() {
		for _, w := range widths {
			sd, err := ops.SynthesizeCached(d, w, testN, ops.VariantSIMDRAM)
			if err != nil {
				return t, err
			}
			am, err := ops.SynthesizeCached(d, w, testN, ops.VariantAmbit)
			if err != nil {
				return t, err
			}
			sLat := sd.Program.LatencyNs(tm)
			aLat := am.Program.LatencyNs(tm)
			t.Rows = append(t.Rows, []string{
				d.Name, fmt.Sprint(w),
				fmt.Sprint(sd.Program.NumAAP()), fmt.Sprint(sd.Program.NumAP()),
				fmtF(sLat, 0),
				fmt.Sprint(len(am.Program.Ops)), fmtF(aLat, 0),
				fmtF(aLat/sLat, 2) + "×",
			})
		}
	}
	return t, nil
}

// E2Throughput reproduces the 16-operation throughput figure: GOps/s on
// CPU, GPU, Ambit, and SIMDRAM with 1, 4 and 16 banks.
func E2Throughput(width int) (Table, error) {
	t := Table{
		ID:     "E2",
		Title:  fmt.Sprintf("throughput of the 16 operations at %d-bit (GOps/s)", width),
		Header: []string{"operation", "cpu", "gpu", "ambit:16", "simdram:1", "simdram:4", "simdram:16", "vs cpu", "vs gpu", "vs ambit"},
	}
	cfg := dram.PaperConfig()
	c := cpu.Skylake()
	g := gpu.TitanV()
	var geoCPU, geoGPU, geoAmbit float64 = 1, 1, 1
	n := 0
	for _, d := range ops.PaperSet() {
		sd, err := ops.SynthesizeCached(d, width, testN, ops.VariantSIMDRAM)
		if err != nil {
			return t, err
		}
		am, err := ops.SynthesizeCached(d, width, testN, ops.VariantAmbit)
		if err != nil {
			return t, err
		}
		cpuT := c.Throughput(d, width, testN)
		gpuT := g.Throughput(d, width, testN)
		ambitT := ctrl.PerfModel{Cfg: cfg, Banks: 16}.Throughput(am.Program)
		s1 := ctrl.PerfModel{Cfg: cfg, Banks: 1}.Throughput(sd.Program)
		s4 := ctrl.PerfModel{Cfg: cfg, Banks: 4}.Throughput(sd.Program)
		s16 := ctrl.PerfModel{Cfg: cfg, Banks: 16}.Throughput(sd.Program)
		geoCPU *= s16 / cpuT
		geoGPU *= s16 / gpuT
		geoAmbit *= s16 / ambitT
		n++
		t.Rows = append(t.Rows, []string{
			d.Name,
			fmtSI(cpuT), fmtSI(gpuT), fmtSI(ambitT),
			fmtSI(s1), fmtSI(s4), fmtSI(s16),
			fmtF(s16/cpuT, 1) + "×", fmtF(s16/gpuT, 1) + "×", fmtF(s16/ambitT, 2) + "×",
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"geomean (simdram:16): %.1f× vs CPU, %.1f× vs GPU, %.2f× vs Ambit (paper: 88×/5.8× avg for 16 ops; up to 5.1× vs Ambit)",
		math.Pow(geoCPU, 1/float64(n)), math.Pow(geoGPU, 1/float64(n)), math.Pow(geoAmbit, 1/float64(n))))
	return t, nil
}

// E3Energy reproduces the energy-efficiency figure: operations per joule
// and ratios vs CPU/GPU/Ambit.
func E3Energy(width int) (Table, error) {
	t := Table{
		ID:     "E3",
		Title:  fmt.Sprintf("energy efficiency of the 16 operations at %d-bit (ops/J)", width),
		Header: []string{"operation", "cpu", "gpu", "ambit", "simdram", "vs cpu", "vs gpu", "vs ambit"},
	}
	cfg := dram.PaperConfig()
	c := cpu.Skylake()
	g := gpu.TitanV()
	model := ctrl.PerfModel{Cfg: cfg, Banks: 16}
	var geoCPU, geoGPU, geoAmbit float64 = 1, 1, 1
	n := 0
	for _, d := range ops.PaperSet() {
		sd, err := ops.SynthesizeCached(d, width, testN, ops.VariantSIMDRAM)
		if err != nil {
			return t, err
		}
		am, err := ops.SynthesizeCached(d, width, testN, ops.VariantAmbit)
		if err != nil {
			return t, err
		}
		cpuE := c.OpsPerJoule(d, width, testN)
		gpuE := g.OpsPerJoule(d, width, testN)
		ambitE := model.OpsPerJoule(am.Program)
		sdE := model.OpsPerJoule(sd.Program)
		geoCPU *= sdE / cpuE
		geoGPU *= sdE / gpuE
		geoAmbit *= sdE / ambitE
		n++
		t.Rows = append(t.Rows, []string{
			d.Name, fmtSI(cpuE), fmtSI(gpuE), fmtSI(ambitE), fmtSI(sdE),
			fmtF(sdE/cpuE, 0) + "×", fmtF(sdE/gpuE, 1) + "×", fmtF(sdE/ambitE, 2) + "×",
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"geomean: %.0f× vs CPU, %.1f× vs GPU, %.2f× vs Ambit (paper: 257×/31× and up to 2.5× vs Ambit)",
		math.Pow(geoCPU, 1/float64(n)), math.Pow(geoGPU, 1/float64(n)), math.Pow(geoAmbit, 1/float64(n))))
	return t, nil
}

// E4Kernels reproduces the seven-kernel comparison.
func E4Kernels() (Table, error) {
	t := Table{
		ID:     "E4",
		Title:  "application kernels: execution time and energy",
		Header: []string{"kernel", "cpu s", "gpu s", "ambit:16 s", "simdram:16 s", "vs cpu", "vs gpu", "vs ambit", "energy vs cpu"},
		Notes:  []string{"paper: up to 2.5× vs Ambit across kernels"},
	}
	cfg := dram.PaperConfig()
	c := cpu.Skylake()
	g := gpu.TitanV()
	for _, spec := range kernels.PaperKernels() {
		sd, err := kernels.SIMDRAMPerf(spec, cfg, 16, ops.VariantSIMDRAM)
		if err != nil {
			return t, err
		}
		am, err := kernels.SIMDRAMPerf(spec, cfg, 16, ops.VariantAmbit)
		if err != nil {
			return t, err
		}
		cp, err := kernels.CPUPerf(spec, c)
		if err != nil {
			return t, err
		}
		gp, err := kernels.GPUPerf(spec, g)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			spec.Name,
			fmtF(cp.TimeNs/1e9, 3), fmtF(gp.TimeNs/1e9, 3), fmtF(am.TimeNs/1e9, 3), fmtF(sd.TimeNs/1e9, 3),
			fmtF(cp.TimeNs/sd.TimeNs, 1) + "×",
			fmtF(gp.TimeNs/sd.TimeNs, 2) + "×",
			fmtF(am.TimeNs/sd.TimeNs, 2) + "×",
			fmtF(cp.EnergyPJ/sd.EnergyPJ, 0) + "×",
		})
	}
	return t, nil
}

// E5Reliability reproduces the process-variation figure: TRA failure
// rate vs cell-capacitance variation across technology nodes.
func E5Reliability(trials int) Table {
	t := Table{
		ID:     "E5",
		Title:  "TRA failure rate under process variation (Monte Carlo)",
		Header: []string{"node", "margin mV", "σ=0%", "σ=5%", "σ=10%", "σ=15%", "σ=20%", "σ=25%"},
		Notes: []string{
			"columns: cell-capacitance variation σ; sense-amplifier offset σ = 5 mV in all runs",
			"paper: correct operation maintained at realistic variation across scaled nodes",
		},
	}
	sigmas := []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25}
	for _, node := range reliability.Nodes() {
		res := reliability.Sweep(node, sigmas, 5, trials, 1234)
		row := []string{node.Name, fmtF(reliability.SenseMarginMV(node), 1)}
		for _, r := range res {
			row = append(row, fmt.Sprintf("%.2e", r.FailureRate()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// E6Area reproduces the area-overhead table.
func E6Area() Table {
	t := Table{
		ID:     "E6",
		Title:  "DRAM die area overhead of SIMDRAM's added hardware",
		Header: []string{"component", "gates", "sram bits", "mm²"},
		Notes:  []string{"paper: total < 1% of the DRAM die"},
	}
	m := area.Default()
	o := area.Estimate(m, area.Components(16*64, 8))
	for _, it := range o.Items {
		t.Rows = append(t.Rows, []string{
			it.Component.Name,
			fmt.Sprint(it.Component.Gates),
			fmt.Sprint(it.Component.SRAMBits),
			fmtF(it.MM2, 4),
		})
	}
	t.Rows = append(t.Rows, []string{"total", "", "", fmt.Sprintf("%.4f (%.3f%% of %.0f mm² die)", o.TotalMM2, o.Fraction*100, m.DieMM2)})
	return t
}

// E7WidthScaling reproduces the element-width scaling figure: bit-serial
// latency grows linearly with width for linear-depth operations and
// quadratically for multiplication/division.
func E7WidthScaling() (Table, error) {
	t := Table{
		ID:     "E7",
		Title:  "μProgram latency vs element width (ns per subarray batch)",
		Header: []string{"operation", "8-bit", "16-bit", "32-bit", "64-bit", "64/32 ratio"},
		Notes: []string{
			"linear-time ops double per width doubling; division quadruples",
			"64-bit multiplication produces the low 64 bits only (the full product exceeds the layout), roughly halving its quadratic growth",
		},
	}
	tm := dram.DDR4_2400()
	for _, name := range []string{"addition", "greater", "bitcount", "multiplication", "division"} {
		d, err := ops.ByName(name)
		if err != nil {
			return t, err
		}
		row := []string{name}
		var l32, l64 float64
		for _, w := range []int{8, 16, 32, 64} {
			s, err := ops.SynthesizeCached(d, w, testN, ops.VariantSIMDRAM)
			if err != nil {
				return t, err
			}
			lat := s.Program.LatencyNs(tm)
			if w == 32 {
				l32 = lat
			}
			if w == 64 {
				l64 = lat
			}
			row = append(row, fmtF(lat, 0))
		}
		row = append(row, fmtF(l64/l32, 2))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// E8Transposition reproduces the store/load overhead analysis: the cost
// of transposing data on the way into and out of the vertical layout,
// relative to the in-DRAM computation it enables.
func E8Transposition() (Table, error) {
	t := Table{
		ID:     "E8",
		Title:  "transposition overhead for a store → addition → load pipeline (32-bit)",
		Header: []string{"elements", "transpose ns", "store+load ns", "compute ns", "transpose share"},
		Notes: []string{
			"transposition-unit pipeline cost vs DRAM row access and in-DRAM compute time",
			"paper: transposition overlaps with DRAM writes and is negligible",
		},
	}
	cfg := dram.PaperConfig()
	d, err := ops.ByName("addition")
	if err != nil {
		return t, err
	}
	s, err := ops.SynthesizeCached(d, 32, 0, ops.VariantSIMDRAM)
	if err != nil {
		return t, err
	}
	model := ctrl.PerfModel{Cfg: cfg, Banks: 16}
	timing := cfg.Timing
	perLine := vertical.DefaultUnitConfig().LatencyPerLineNs
	for _, n := range []int{1 << 20, 1 << 23, 1 << 26} {
		// The swap network is pipelined at channel rate: each row write
		// pays only the pipeline-fill latency of one 64 B line, not a
		// serialized per-line cost — the per-line work overlaps with the
		// burst transfer (paper §4). The fill latency is the unit's own
		// per-line cost.
		rowsTouched := float64(3*32) * math.Ceil(float64(n)/float64(cfg.Cols))
		trans := rowsTouched * perLine
		storeLoad := rowsTouched * timing.RowAccessLatency()
		compute := model.LatencyNs(s.Program, n)
		t.Rows = append(t.Rows, []string{
			fmtSI(float64(n)),
			fmtSI(trans), fmtSI(storeLoad), fmtSI(compute),
			fmtF(trans/(trans+storeLoad+compute)*100, 1) + "%",
		})
	}
	return t, nil
}
