package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeResults writes a simdram-bench -json style result file.
func writeResults(t *testing.T, dir, name string, metrics map[string]float64) string {
	t.Helper()
	data, err := json.Marshal(results{Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckGatesEveryFile feeds two result files that both emit a gated
// metric, the way the -graph and -serve demos both emit
// verify.plans_checked. A regression in either file must fail, and the
// failing line must name that file.
func TestCheckGatesEveryFile(t *testing.T) {
	base := baseline{Tolerance: 0.15, Metrics: map[string]baselineMetric{
		"verify.plans_checked":   {Value: 1, Direction: "higher", Tolerance: 0.01},
		"batch.critical_path_ns": {Value: 100, Direction: "lower"},
	}}
	cases := []struct {
		name         string
		graph, serve map[string]float64 // the two files, in argument order
		regressedIn  string             // the file every REGRESSED line names; "" for none
		wantMissing  bool
	}{
		{"both files pass",
			map[string]float64{"verify.plans_checked": 3, "batch.critical_path_ns": 100},
			map[string]float64{"verify.plans_checked": 288}, "", false},
		{"regression in the shadowed file",
			map[string]float64{"verify.plans_checked": 0, "batch.critical_path_ns": 100},
			map[string]float64{"verify.plans_checked": 288}, "graph.json", false},
		{"regression in the last file",
			map[string]float64{"verify.plans_checked": 3, "batch.critical_path_ns": 100},
			map[string]float64{"verify.plans_checked": 0}, "serve.json", false},
		{"metric in no file",
			map[string]float64{"verify.plans_checked": 3},
			map[string]float64{"verify.plans_checked": 288}, "", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			files := []string{
				writeResults(t, dir, "graph.json", tc.graph),
				writeResults(t, dir, "serve.json", tc.serve),
			}
			var out strings.Builder
			ok, err := check(base, files, &out)
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.regressedIn == "" && !tc.wantMissing; ok != want {
				t.Errorf("check = %v, want %v; output:\n%s", ok, want, out.String())
			}
			regressed := 0
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(line, "REGRESSED") {
					regressed++
					if !strings.HasSuffix(line, tc.regressedIn) {
						t.Errorf("regressed line names the wrong file: %q", line)
					}
				}
			}
			if (regressed > 0) != (tc.regressedIn != "") {
				t.Errorf("%d regressed lines, want them in %q; output:\n%s", regressed, tc.regressedIn, out.String())
			}
			if got := strings.Contains(out.String(), "MISSING"); got != tc.wantMissing {
				t.Errorf("MISSING reported: %v, want %v; output:\n%s", got, tc.wantMissing, out.String())
			}
		})
	}
}

func TestCheckRejectsUnknownDirection(t *testing.T) {
	base := baseline{Metrics: map[string]baselineMetric{"m": {Value: 1, Direction: "sideways"}}}
	path := writeResults(t, t.TempDir(), "r.json", map[string]float64{"m": 1})
	if _, err := check(base, []string{path}, &strings.Builder{}); err == nil {
		t.Fatal("an unknown direction must be an input error")
	}
}
