// Command bench is the repository benchmark: four workloads driven
// through simdram's public API (Server, System, Cluster), every result
// checked against the golden CPU model, every metric printed as
// "name value unit" and, as the last line, one JSON object. See
// README.md for the workloads, the metrics and their expected
// interactions. Build and run it from the repository root through
// bench/run.sh:
//
//	bash bench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct {
	name, unit string
}

// endToEnd and perLayer mirror BENCHMARK.json's end_to_end and
// per_layer lists (bench_test.go keeps the two in sync): the metrics
// the JSON result carries with --trace 0 and --trace 1 respectively.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"sim_rate", "ns/ns"},
	{"modeled_jobs_per_s", "1/s"},
	{"energy_pj_per_job", "pJ"},
	{"setup_s", "s"},
	{"host_mem_mb", "MB"},
}

var perLayer = []metricDef{
	{"sched.queue_us", "us"},
	{"server.job_self_us", "us"},
	{"graph.compile_us", "us"},
	{"graph.cache_lookup_us", "us"},
	{"graph.schedule_us", "us"},
	{"graph.lower_us", "us"},
	{"ctrl.prepare_us", "us"},
	{"ctrl.resolve_us", "us"},
	{"ctrl.execute_us", "us"},
	{"uprog.run_us", "us"},
	{"vertical.gather_us", "us"},
	{"trace.other_us", "us"},
	{"server.unattributed_us", "us"},
	{"trace.coverage", "ratio"},
	{"graph.cold_compile_us", "us"},
	{"graph.cache_hit_rate", "ratio"},
	{"graph.evictions_per_job", "count"},
	{"verify.us_per_plan", "us"},
	{"verify.plans_per_job", "count"},
	{"uprog.ns_per_cmd", "ns"},
	{"uprog.kernel_us", "us"},
	{"uprog.kernel_share", "ratio"},
	{"vertical.store_ns_per_elem", "ns"},
	{"vertical.load_ns_per_elem", "ns"},
	{"cluster.host_vs_single", "ratio"},
	{"host.allocs_per_job", "count"},
	{"host.alloc_bytes_per_job", "B"},
	{"host.gc_per_kjob", "count"},
	{"obs.trace_overhead", "ratio"},
	{"obs.observe_ns", "ns"},
	{"obs.trace_start_ns", "ns"},
	{"sched.admit_dispatch_us", "us"},
	{"dram.commands_per_job", "count"},
}

// options is one benchmark invocation. The command line sets
// setupProcs to 9; the other fields after traced stay zero there and
// exist for bench_test.go, which shrinks runs to fixed job counts,
// times set-up in-process, and corrupts one expected result.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool

	warmJobs      int  // warm-up jobs; 0 = the workload's default
	jobsPerClient int  // cap on each client's measured jobs; 0 = none
	setupProcs    int  // set-up samples in child processes; 0 = one in-process sample
	corrupt       bool // flip one bit of one expected result
}

// metric is one measured value.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what a run measured.
type result struct {
	attempted int
	metrics   []metric
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) get(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

func main() {
	start := time.Now()
	var o options
	var trace int
	var jsonOut string
	var setupChild bool
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced per-layer metrics")
	flag.StringVar(&jsonOut, "json", "", "also write every metric to this file as JSON")
	flag.BoolVar(&setupChild, "setup-child", false, "internal: time one set-up, print its seconds and the host-speed factor")
	flag.Parse()
	o.traced = trace == 1
	o.setupProcs = 9

	if setupChild {
		// A child of measureSetup: process start to a ready system,
		// less the time spent generating the set-up requests.
		raw, speed, err := childSetup(o, start)
		if err != nil {
			fatal(err)
		}
		fmt.Println(raw, speed)
		return
	}
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || !knownWorkload(o.workload) {
		fmt.Fprintf(os.Stderr, "usage: bench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(workloadNames, ","))
		os.Exit(2)
	}
	fmt.Printf("# simdram bench: workload %s, seed %d, %gs window, trace %d; %s, nproc %d, GOMAXPROCS %d\n",
		o.workload, o.seed, o.seconds, trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	res, err := run(o)
	if err != nil {
		fatal(err)
	}
	if err := report(os.Stdout, res, o.traced, jsonOut); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// run executes one benchmark invocation.
func run(o options) (*result, error) {
	if o.traced {
		return runTraced(o)
	}
	res := &result{}
	setup, rawSetup, err := measureSetup(o)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(o, false)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := w.setup(); err != nil {
		return nil, err
	}
	if err := warm(w, o); err != nil {
		return nil, err
	}
	ex := w.exact()
	win, err := runWindow(w.clients(), seconds(o.seconds), o.jobsPerClient, w.job)
	if err != nil {
		return nil, err
	}
	res.attempted = win.jobs
	res.add("throughput_per_s", win.cal.rate, "1/s")
	res.add("latency_p50_ms", win.cal.p50, "ms")
	res.add("latency_p90_ms", win.cal.p90, "ms")
	res.add("sim_rate", win.cal.simRate, "ns/ns")
	res.add("modeled_jobs_per_s", 1e9/ex.modeledNs, "1/s")
	res.add("energy_pj_per_job", ex.energyPJ, "pJ")
	res.add("setup_s", setup, "s")
	res.add("host_mem_mb", win.rssMB, "MB")
	// Printed, not gated: the host-time metrics as timed, before
	// calibration; the exact modeled numbers behind modeled_jobs_per_s;
	// the tail percentiles over the whole window and the peak resident
	// set, whose run-to-run spreads are far wider than any useful bound;
	// and the failure rate (any failure already fails the run).
	res.add("raw.setup_s", rawSetup, "s")
	res.add("raw.throughput_per_s", win.raw.rate, "1/s")
	res.add("raw.latency_p50_ms", win.raw.p50, "ms")
	res.add("raw.latency_p90_ms", win.raw.p90, "ms")
	res.add("raw.sim_rate", win.raw.simRate, "ns/ns")
	res.add("host.speed_factor", win.speed, "ratio")
	res.add("modeled_ns_per_job", ex.modeledNs, "ns")
	res.add("dram.commands_per_job", ex.commands, "count")
	res.add("client.latency_p99_ms", quantile(win.lats, 0.99), "ms")
	res.add("client.latency_p999_ms", quantile(win.lats, 0.999), "ms")
	res.add("host.peak_rss_mb", procStatusMB("VmHWM:"), "MB")
	res.add("error_rate", 0, "ratio")
	res.add("jobs", float64(win.jobs), "count")
	return res, nil
}

// warm runs the workload's untimed warm-up: enough jobs that caches,
// profiles and the heap reach steady state, and that every pool entry
// the exact metrics average over has run.
func warm(w workload, o options) error {
	n := o.warmJobs
	if n == 0 {
		n = w.warmJobs()
	}
	_, err := runWindow(w.clients(), 24*time.Hour, n/w.clients(), w.job)
	return err
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// measureSetup returns setup_s and its uncalibrated value: medians
// over o.setupProcs child processes of the time from process start to a
// system ready for its first timed job (the requests' generation
// excluded). Fresh processes keep process-wide caches, such as
// μProgram synthesis, inside the measurement. With setupProcs 0 it
// times one set-up in this process.
func measureSetup(o options) (setup, raw float64, err error) {
	if o.setupProcs == 0 {
		raw, speed, err := childSetup(o, time.Now())
		return raw / speed, raw, err
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cal := make([]float64, o.setupProcs)
	raws := make([]float64, o.setupProcs)
	for i := range cal {
		cmd := exec.Command(exe, "-setup-child", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, 0, fmt.Errorf("set-up child: %w", err)
		}
		var speed float64
		if _, err := fmt.Sscan(string(out), &raws[i], &speed); err != nil {
			return 0, 0, fmt.Errorf("set-up child printed %q: %w", out, err)
		}
		cal[i] = raws[i] / speed
	}
	return median(cal), median(raws), nil
}

// childSetup times one set-up from start, and the host-speed factor
// (see calibrate) just before it.
func childSetup(o options, start time.Time) (raw, speed float64, err error) {
	prep := time.Now()
	w, err := newWorkload(o, true)
	if err != nil {
		return 0, 0, err
	}
	speed = calibrate()
	prepared := time.Since(prep)
	defer w.close()
	if err := w.setup(); err != nil {
		return 0, 0, err
	}
	return (time.Since(start) - prepared).Seconds(), speed, nil
}

// report prints every metric as "name value unit", then the JSON
// result line carrying the mode's BENCHMARK.json metrics.
func report(out io.Writer, res *result, traced bool, jsonOut string) error {
	all := map[string]any{}
	for _, m := range res.metrics {
		fmt.Fprintf(out, "%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		all[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	picked := map[string]any{}
	for _, d := range defs {
		v, ok := res.get(d.name)
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		picked[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if jsonOut != "" {
		b, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": res.attempted, "failed": 0, "metrics": picked,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}
