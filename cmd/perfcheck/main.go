// perfcheck is the CI performance-regression gate: it compares the
// machine-readable metrics emitted by `simdram-bench -json` against
// the committed baseline (BENCH_baseline.json) and fails when any
// gated metric regresses beyond its tolerance.
//
// Usage:
//
//	perfcheck -baseline BENCH_baseline.json out1.json [out2.json ...]
//
// The baseline declares, per metric, the expected value, the
// direction in which change is a regression ("lower" means lower is
// better, so a rise regresses; "higher" the opposite), and optionally
// a per-metric tolerance overriding the file-wide default. Only
// deterministic metrics belong in the baseline — modeled latencies,
// scaling ratios, cache hit rates — never wall-clock throughput,
// which shared CI runners make unreliably noisy.
//
// A metric present in the baseline but absent from every result file
// is an error: a silently skipped demo must not pass the gate. A metric
// several result files emit is gated in each of them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

type baseline struct {
	// Tolerance is the file-wide allowed relative regression (0.15 =
	// 15%).
	Tolerance float64                   `json:"tolerance"`
	Metrics   map[string]baselineMetric `json:"metrics"`
}

type baselineMetric struct {
	Value     float64 `json:"value"`
	Direction string  `json:"direction"`           // "lower" or "higher" (is better)
	Tolerance float64 `json:"tolerance,omitempty"` // overrides the file-wide value
}

type results struct {
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	basePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline thresholds")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "perfcheck: no result files given")
		os.Exit(2)
	}
	var base baseline
	if err := readJSON(*basePath, &base); err != nil {
		fmt.Fprintf(os.Stderr, "perfcheck: baseline: %v\n", err)
		os.Exit(2)
	}
	ok, err := check(base, flag.Args(), os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfcheck: %v\n", err)
		os.Exit(2)
	}
	if !ok {
		fmt.Println("perfcheck: FAIL — performance regressed beyond tolerance (or a gated demo did not run)")
		os.Exit(1)
	}
	fmt.Println("perfcheck: all gated metrics within tolerance")
}

// observed is one result file's value of a metric.
type observed struct {
	file  string
	value float64
}

// check gates every result file's value of every baseline metric — a
// metric several demos emit is checked in each of them, so no file's
// value shadows another's — and writes one line per (metric, file).
// It reports whether everything passed; err is a malformed input.
func check(base baseline, files []string, out io.Writer) (bool, error) {
	if base.Tolerance <= 0 {
		base.Tolerance = 0.15
	}
	got := map[string][]observed{}
	for _, path := range files {
		var r results
		if err := readJSON(path, &r); err != nil {
			return false, err
		}
		for name, v := range r.Metrics {
			got[name] = append(got[name], observed{path, v})
		}
	}

	names := make([]string, 0, len(base.Metrics))
	for name := range base.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)

	ok := true
	for _, name := range names {
		bm := base.Metrics[name]
		tol := bm.Tolerance
		if tol <= 0 {
			tol = base.Tolerance
		}
		if len(got[name]) == 0 {
			fmt.Fprintf(out, "MISSING  %-28s baseline %.4g — metric not in any result file\n", name, bm.Value)
			ok = false
			continue
		}
		for _, o := range got[name] {
			var regressed bool
			switch bm.Direction {
			case "lower": // lower is better: a rise beyond tolerance regresses
				regressed = o.value > bm.Value*(1+tol)
			case "higher": // higher is better: a drop beyond tolerance regresses
				regressed = o.value < bm.Value*(1-tol)
			default:
				return false, fmt.Errorf("metric %s: unknown direction %q", name, bm.Direction)
			}
			status := "ok"
			if regressed {
				status = "REGRESSED"
				ok = false
			}
			fmt.Fprintf(out, "%-9s%-28s %12.4g  (baseline %.4g, %s is better, tolerance %.0f%%) in %s\n",
				status, name, o.value, bm.Value, bm.Direction, 100*tol, o.file)
		}
	}
	return ok, nil
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
