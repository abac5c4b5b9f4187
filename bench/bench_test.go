package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"simdram"
)

// small is a run shrunk to a few dozen jobs per window.
func small(workload string) options {
	return options{workload: workload, seed: 7, seconds: 60, warmJobs: 8, jobsPerClient: 50}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, bench %v", names, workloadNames)
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, bench %d", c.what, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], bench %s [%s]", c.what, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// exactMetrics are the modeled numbers that must repeat bit for bit.
var exactMetrics = []string{"modeled_jobs_per_s", "modeled_ns_per_job", "energy_pj_per_job", "dram.commands_per_job"}

func TestWorkloads(t *testing.T) {
	// The values BENCH_baseline.json gates for the same shapes:
	// cluster.critical_path_ns and serve.energy_pj_per_job.
	pinned := map[string]map[string]float64{
		"cluster4":  {"modeled_ns_per_job": 25776.96},
		"serve-hot": {"energy_pj_per_job": 63692400},
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			o := small(name)
			first := mustRun(t, o)
			second := mustRun(t, o)
			for _, m := range exactMetrics {
				a, _ := first.get(m)
				b, _ := second.get(m)
				if a != b || a == 0 {
					t.Errorf("%s: %v then %v with one seed", m, a, b)
				}
			}
			for m, want := range pinned[name] {
				if got, _ := first.get(m); got != want {
					t.Errorf("%s = %v, want %v", m, got, want)
				}
			}
			o.traced = true
			mustRun(t, o)
		})
	}
}

// mustRun runs o and checks that the JSON result line carries every
// metric of the mode with its unit.
func mustRun(t *testing.T, o options) *result {
	t.Helper()
	res, err := run(o)
	if err != nil {
		t.Fatalf("trace=%v: %v", o.traced, err)
	}
	var out strings.Builder
	if err := report(&out, res, o.traced, ""); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct   bool
		Attempted int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(defs) {
		t.Errorf("result line %+v", line)
	}
	for _, d := range defs {
		if m, ok := line.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s: %+v, want unit %s", d.name, m, d.unit)
		}
	}
	return res
}

func TestCorruptExpectationFails(t *testing.T) {
	for _, name := range workloadNames {
		o := small(name)
		o.corrupt = true
		if _, err := run(o); err == nil || !strings.Contains(err.Error(), "golden model") {
			t.Errorf("%s: run against a corrupted expected result returned %v", name, err)
		}
	}
}

func TestSelfTimesAudit(t *testing.T) {
	sum := func(spans []simdram.TraceSpan) int64 {
		var s int64
		for _, ns := range selfTimes(spans) {
			s += ns
		}
		return s
	}
	nested := []simdram.TraceSpan{
		{Name: "job", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "queue", Parent: 0, StartNs: 5, EndNs: 20},
		{Name: "compile", Parent: 0, StartNs: 20, EndNs: 60},
		{Name: "lower", Parent: 2, StartNs: 30, EndNs: 50},
	}
	if got := sum(nested); got != 100 {
		t.Errorf("nested spans: self times sum to %d, want the job span 100", got)
	}
	if got := selfTimes(nested)[2]; got != 20 {
		t.Errorf("compile self time %d, want 20", got)
	}
	overlapping := append(nested[:3:3], simdram.TraceSpan{Name: "run", Parent: 0, StartNs: 50, EndNs: 90})
	if got := sum(overlapping); got == 100 {
		t.Errorf("overlapping siblings passed the audit")
	}
}
