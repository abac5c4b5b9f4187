package experiments

import (
	"fmt"

	"simdram/internal/dram"
	"simdram/internal/ops"
	"simdram/internal/rowhammer"
	"simdram/internal/uprog"
)

// E9Ablation quantifies each framework optimization (docs/reproduction.md, "Ablations"): the
// Step-1 MIG rewriting, the Step-2 row reuse, and the two together
// against the Ambit baseline, per operation.
func E9Ablation(width int) (Table, error) {
	t := Table{
		ID:    "E9",
		Title: fmt.Sprintf("ablations at %d-bit: μProgram latency (ns) by disabled optimization", width),
		Header: []string{"operation", "full", "no MAJ synthesis", "no row reuse", "ambit",
			"step-1 gain", "step-2 gain"},
		Notes: []string{
			"step-1 gain = (basic AND/OR/NOT decomposition, SIMDRAM executor) / full",
			"step-2 gain = (no cross-node row reuse) / full",
		},
	}
	tm := dram.DDR4_2400()
	for _, d := range ops.PaperSet() {
		lat := map[ops.Variant]float64{}
		for _, v := range []ops.Variant{ops.VariantSIMDRAM, ops.VariantNoOptimize, ops.VariantNoReuse, ops.VariantAmbit} {
			s, err := ops.SynthesizeCached(d, width, testN, v)
			if err != nil {
				return t, err
			}
			lat[v] = s.Program.LatencyNs(tm)
		}
		t.Rows = append(t.Rows, []string{
			d.Name,
			fmtF(lat[ops.VariantSIMDRAM], 0),
			fmtF(lat[ops.VariantNoOptimize], 0),
			fmtF(lat[ops.VariantNoReuse], 0),
			fmtF(lat[ops.VariantAmbit], 0),
			fmtF(lat[ops.VariantNoOptimize]/lat[ops.VariantSIMDRAM], 2) + "×",
			fmtF(lat[ops.VariantNoReuse]/lat[ops.VariantSIMDRAM], 2) + "×",
		})
	}
	return t, nil
}

// E9Groups measures the benefit of the second triple-row-activation
// group (NumTRows 6 vs 3) — a hardware design choice docs/reproduction.md
// ("Ablations") calls out for ablation.
func E9Groups(width int) (Table, error) {
	t := Table{
		ID:     "E9b",
		Title:  fmt.Sprintf("TRA group ablation at %d-bit: one vs two groups", width),
		Header: []string{"operation", "2 groups ns", "1 group ns", "second-group gain"},
	}
	tm := dram.DDR4_2400()
	for _, d := range ops.PaperSet() {
		s2, err := ops.SynthesizeCached(d, width, testN, ops.VariantSIMDRAM)
		if err != nil {
			return t, err
		}
		// Re-generate with a single TRA group.
		arity := d.EffArity(testN)
		in, out := ops.RefsForWidths(d.SourceWidths(width, arity), d.DstWidth(width))
		opts := uprog.DefaultCodegen(d.Name + "-1group")
		opts.NumTRows = 3
		p1, err := uprog.Generate(s2.MIG, in, out, opts)
		if err != nil {
			return t, err
		}
		l2 := s2.Program.LatencyNs(tm)
		l1 := p1.LatencyNs(tm)
		t.Rows = append(t.Rows, []string{
			d.Name, fmtF(l2, 0), fmtF(l1, 0), fmtF(l1/l2, 2) + "×",
		})
	}
	return t, nil
}

// E10RowHammer reports RowHammer exposure per operation (paper §4,
// integration challenge 3): the hottest row's activations per 64 ms
// refresh window under back-to-back execution, against generational
// thresholds, plus the mitigation cost.
func E10RowHammer() (Table, error) {
	t := Table{
		ID:    "E10",
		Title: "RowHammer exposure of back-to-back μPrograms (hottest row, acts per 64 ms window)",
		Header: []string{"operation", "hottest row", "acts/exec", "acts/window",
			"exceeds DDR4 50k", "mitigation refreshes"},
		Notes: []string{
			"all hot rows sit in the fixed compute region, so the paper's buffer-row/neighbor-refresh mitigation applies",
		},
	}
	tm := dram.DDR4_2400()
	for _, d := range ops.PaperSet() {
		s, err := ops.SynthesizeCached(d, 16, testN, ops.VariantSIMDRAM)
		if err != nil {
			return t, err
		}
		rep := rowhammer.Analyze(s.Program, tm)
		hot := rep.Rows[0]
		exceeds := "no"
		if rep.Exceeds(rowhammer.ThresholdDDR4) {
			exceeds = "yes"
		}
		t.Rows = append(t.Rows, []string{
			d.Name,
			hot.Ref.String(),
			fmt.Sprint(hot.ActsPerExec),
			fmtSI(float64(hot.ActsPerWindow)),
			exceeds,
			fmtSI(float64(rep.MitigationRefreshes(rowhammer.ThresholdDDR4))),
		})
	}
	return t, nil
}
