// simdram-bench regenerates every table and figure of the SIMDRAM
// evaluation (experiments E1-E8, see DESIGN.md and EXPERIMENTS.md).
//
// Usage:
//
//	simdram-bench               # run everything
//	simdram-bench -only E2,E3   # run a subset
//	simdram-bench -trials 200000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"simdram"
	"simdram/internal/batchgen"
	"simdram/internal/experiments"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment IDs (e.g. E1,E4); empty = all")
	trials := flag.Int("trials", 100000, "Monte Carlo trials for the reliability experiment (E5)")
	batch := flag.Bool("batch", false, "run the batched-execution demo instead of the paper experiments")
	batchRounds := flag.Int("batch-rounds", 20, "wall-clock averaging rounds for -batch")
	clusterN := flag.Int("cluster", 0, "run the sharded-cluster demo with N channels instead of the paper experiments")
	graphMode := flag.Bool("graph", false, "run the lazy expression-graph compiler demo instead of the paper experiments")
	serve := flag.Bool("serve", false, "run the multi-tenant serving demo instead of the paper experiments")
	tenants := flag.Int("tenants", 4, "tenants for -serve")
	jobs := flag.Int("jobs", 32, "jobs per tenant for -serve")
	inflight := flag.Int("inflight", 4, "in-flight jobs per tenant for -serve")
	channels := flag.Int("channels", 4, "cluster channels for -serve")
	traceJobs := flag.Int("trace-jobs", 0, "print the span trees of the last N traced jobs after -serve")
	tiers := flag.Bool("tiers", false, "with -serve, run the two-tier QoS overload demo (weighted shares, SLO isolation, deadline admission)")
	tierWindow := flag.Duration("tier-window", 2*time.Second, "measurement window for -serve -tiers share accounting")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics (Prometheus exposition) and /debug/simdram (JSON) on this address during -serve")
	telemetryHold := flag.Duration("telemetry-hold", 0, "keep the -telemetry-addr endpoint up this long after the -serve demo finishes (for scrapers)")
	jsonPath := flag.String("json", "", "write machine-readable demo metrics to this file (for scripts/perfcheck)")
	flag.Parse()

	m := metrics{}
	runDemo := func(run func() error) {
		err := run()
		if werr := m.write(*jsonPath); werr != nil && err == nil {
			err = werr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *serve && *tiers {
		runDemo(func() error {
			return runServeTiersDemo(*inflight, *channels, *tierWindow, m)
		})
		return
	}
	if *serve {
		runDemo(func() error {
			return runServeDemo(*tenants, *jobs, *inflight, *channels, *traceJobs, *telemetryAddr, *telemetryHold, m)
		})
		return
	}
	if *graphMode {
		runDemo(func() error { return runGraphDemo(m) })
		return
	}
	if *clusterN > 0 {
		runDemo(func() error { return runClusterDemo(*clusterN, m) })
		return
	}
	if *batch {
		runDemo(func() error { return runBatchDemo(*batchRounds, m) })
		return
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }

	type gen func() (experiments.Table, error)
	runners := []struct {
		id  string
		run gen
	}{
		{"E1", func() (experiments.Table, error) { return experiments.E1CommandCounts([]int{8, 16, 32, 64}) }},
		{"E2-16", func() (experiments.Table, error) { return experiments.E2Throughput(16) }},
		{"E2", func() (experiments.Table, error) { return experiments.E2Throughput(32) }},
		{"E3", func() (experiments.Table, error) { return experiments.E3Energy(32) }},
		{"E4", experiments.E4Kernels},
		{"E5", func() (experiments.Table, error) { return experiments.E5Reliability(*trials), nil }},
		{"E6", func() (experiments.Table, error) { return experiments.E6Area(), nil }},
		{"E7", experiments.E7WidthScaling},
		{"E8", experiments.E8Transposition},
		{"E9", func() (experiments.Table, error) { return experiments.E9Ablation(16) }},
		{"E9-groups", func() (experiments.Table, error) { return experiments.E9Groups(16) }},
		{"E10", experiments.E10RowHammer},
	}
	failed := false
	for _, r := range runners {
		base := strings.SplitN(r.id, "-", 2)[0]
		if !selected(base) {
			continue
		}
		tab, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.id, err)
			failed = true
			continue
		}
		fmt.Println(tab.String())
	}
	// The paper experiments emit tables, not gated metrics; still
	// honor -json so a caller's pipeline finds the file it asked for.
	if err := m.write(*jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, err)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// runClusterDemo shards the bank-disjoint workload across an N-channel
// cluster and compares its modeled makespan against the single-channel
// serial-equivalent: the identical total workload on one System, issued
// one instruction at a time. Near-linear scaling shows up as a critical
// path close to 1/N of the baseline (the acceptance target is < 0.35×
// at N = 4).
func runClusterDemo(channels int, m metrics) error {
	cfg := simdram.DefaultClusterConfig(channels)
	c, err := simdram.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	cprog, err := batchgen.ClusterProgram(c, 1)
	if err != nil {
		return err
	}
	start := time.Now()
	cst, err := c.ExecBatch(cprog)
	if err != nil {
		return err
	}
	clusterWall := time.Since(start)

	// The same total elements and instruction stream on one channel.
	sys, err := simdram.New(cfg.Channel)
	if err != nil {
		return err
	}
	defer sys.Close()
	sprog, err := batchgen.ProgramScaled(sys, 1, channels)
	if err != nil {
		return err
	}
	sst, err := sys.ExecBatch(sprog)
	if err != nil {
		return err
	}

	d := cfg.Channel.DRAM
	fmt.Printf("sharded cluster demo: %d channels × (%d banks × %d subarrays × %d lanes), %d instructions, %d elements/vector\n",
		channels, d.Banks, d.SubarraysPerBank, d.Cols, len(cprog), d.Cols*channels)
	fmt.Printf("  single channel:     %12.2f ns serial-equivalent, %12.2f ns batched critical path\n",
		sst.BusyNs, sst.CriticalPathNs)
	fmt.Printf("  cluster (%d ch):     %12.2f ns critical path  (%.2f ns aggregate work, %.2f× fabric overlap, skew %.3f)\n",
		channels, cst.CriticalPathNs, cst.BusyNs, cst.Speedup(), cst.UtilizationSkew())
	ratio := cst.CriticalPathNs / sst.BusyNs
	fmt.Printf("  scaling:            cluster critical path = %.3f× single-channel serial-equivalent (wall %v)\n",
		ratio, clusterWall)
	fmt.Printf("  per-channel utilization: ")
	for i, u := range cst.ChannelUtilization {
		if i > 0 {
			fmt.Printf(", ")
		}
		fmt.Printf("ch%d %.2f", i, u)
	}
	fmt.Println()
	m["cluster.critical_path_ns"] = cst.CriticalPathNs
	m["cluster.scaling_ratio"] = ratio
	m["cluster.fabric_overlap"] = cst.Speedup()
	m["cluster.utilization_skew"] = cst.UtilizationSkew()
	m["verify.plans_checked"] = float64(c.VerifiedPlans())
	if channels >= 4 && ratio >= 0.35 {
		return fmt.Errorf("cluster scaling regressed: critical path %.3f× serial-equivalent, want < 0.35×", ratio)
	}
	return nil
}

// runGraphDemo compiles the lazy expression workload twice — naive
// per-node lowering (every pass off, one fresh temporary per node,
// issued serially through Exec) and the optimized graph compiler
// (fold + CSE + DCE + cost-driven schedule + lifetime slot reuse,
// executed as one batch) — verifies the results are bit-identical, and
// reports what the compiler saved. The run fails if lifetime reuse
// saves less than 30% of the naive temporary rows or CSE finds no
// duplicates: those are the subsystem's regression guards.
func runGraphDemo(m metrics) error {
	cfg := simdram.DefaultConfig()
	sys, err := simdram.New(cfg)
	if err != nil {
		return err
	}
	defer sys.Close()
	roots, err := batchgen.GraphExprs(sys, 1)
	if err != nil {
		return err
	}

	// Naive per-node baseline, issued one instruction at a time.
	naive, err := sys.CompileWith(simdram.NaiveCompile, roots...)
	if err != nil {
		return err
	}
	nst := naive.Stats()
	var serialBusyNs float64
	start := time.Now()
	for _, in := range naive.Program() {
		st, err := sys.Exec(in)
		if err != nil {
			return err
		}
		serialBusyNs += st.LatencyNs
	}
	serialWall := time.Since(start)
	naiveOut := make([][]uint64, len(roots))
	for i, r := range roots {
		if naiveOut[i], err = r.Result().Load(); err != nil {
			return err
		}
	}
	for _, r := range roots {
		r.Result().Free()
	}
	naive.Free()

	// Optimized graph compiler, executed as one batch.
	opt, err := sys.Compile(roots...)
	if err != nil {
		return err
	}
	ost := opt.Stats()
	start = time.Now()
	bst, err := opt.Execute()
	if err != nil {
		return err
	}
	batchWall := time.Since(start)
	for i, r := range roots {
		got, err := r.Result().Load()
		if err != nil {
			return err
		}
		for j := range got {
			if got[j] != naiveOut[i][j] {
				return fmt.Errorf("graph demo: root %d element %d: optimized %d != naive %d",
					i, j, got[j], naiveOut[i][j])
			}
		}
	}
	for _, r := range roots {
		r.Result().Free()
	}
	opt.Free()

	saved := 1 - float64(ost.TempRowsPooled)/float64(nst.TempRowsPooled)
	fmt.Printf("lazy expression-graph compiler demo: %d-node DAG, %d roots, %d lanes × 8 bits\n",
		nst.Nodes, len(roots), cfg.DRAM.Cols)
	fmt.Printf("  passes:             %d folded, %d CSE-eliminated, %d DCE-removed\n",
		ost.Folded, ost.CSEEliminated, ost.DCEEliminated)
	fmt.Printf("  instructions:       %4d naive → %4d optimized (%.0f%% fewer)\n",
		nst.Instructions, ost.Instructions,
		100*(1-float64(ost.Instructions)/float64(nst.Instructions)))
	fmt.Printf("  temporary rows:     %4d naive → %4d pooled in %d slots (%.0f%% fewer)\n",
		nst.TempRowsPooled, ost.TempRowsPooled, ost.TempSlots, 100*saved)
	fmt.Printf("  modeled latency:    %10.2f ns serial naive, %.2f ns optimized critical path (%.2f× speedup)\n",
		serialBusyNs, bst.CriticalPathNs, serialBusyNs/bst.CriticalPathNs)
	fmt.Printf("  wall:               serial %v, batched %v\n", serialWall, batchWall)
	fmt.Printf("  verified %d roots bit-identical to the naive serial execution\n", len(roots))
	m["graph.critical_path_ns"] = bst.CriticalPathNs
	m["graph.temp_row_reuse"] = saved
	m["graph.instructions"] = float64(ost.Instructions)
	m["graph.cse_eliminated"] = float64(ost.CSEEliminated)
	m["graph.speedup_modeled"] = serialBusyNs / bst.CriticalPathNs
	m["verify.plans_checked"] = float64(sys.VerifiedPlans())
	if err := reportHostPerf(m, "host."); err != nil {
		return err
	}
	if ost.CSEEliminated == 0 {
		return fmt.Errorf("graph demo regressed: CSE eliminated no duplicated subexpressions")
	}
	if saved < 0.30 {
		return fmt.Errorf("graph demo regressed: lifetime reuse saved %.0f%% of temporary rows, want >= 30%%", 100*saved)
	}
	return nil
}

// runBatchDemo compares a serial Exec loop against ExecBatch on the
// default 4-bank geometry: one independent 8-bit addition per
// (bank, subarray), so the batched engine can overlap all banks while
// the serial loop issues one instruction at a time.
func runBatchDemo(rounds int, m metrics) error {
	if rounds < 1 {
		return fmt.Errorf("-batch-rounds must be >= 1, have %d", rounds)
	}
	cfg := simdram.DefaultConfig()
	sys, err := simdram.New(cfg)
	if err != nil {
		return err
	}
	defer sys.Close()
	prog, err := batchgen.Program(sys, 1)
	if err != nil {
		return err
	}

	// Warm up untimed so the one-time μProgram synthesis (cached across
	// the run) is not billed to whichever side executes first.
	for _, in := range prog {
		if _, err := sys.Exec(in); err != nil {
			return err
		}
	}

	var serial time.Duration
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, in := range prog {
			if _, err := sys.Exec(in); err != nil {
				return err
			}
		}
	}
	serial = time.Since(start)

	var st simdram.BatchStats
	start = time.Now()
	for r := 0; r < rounds; r++ {
		if st, err = sys.ExecBatch(prog); err != nil {
			return err
		}
	}
	batched := time.Since(start)

	instrs := rounds * len(prog)
	fmt.Printf("batched execution demo: %d instructions/round × %d rounds, %d banks × %d subarrays, %d lanes each\n",
		len(prog), rounds, cfg.DRAM.Banks, cfg.DRAM.SubarraysPerBank, cfg.DRAM.Cols)
	fmt.Printf("  serial Exec loop:   %10.2f ms wall  (%8.0f instr/s)\n",
		float64(serial.Microseconds())/1e3, float64(instrs)/serial.Seconds())
	fmt.Printf("  ExecBatch:          %10.2f ms wall  (%8.0f instr/s)  wall speedup %.2f×\n",
		float64(batched.Microseconds())/1e3, float64(instrs)/batched.Seconds(), serial.Seconds()/batched.Seconds())
	fmt.Printf("  modeled latency:    %10.2f ns serial-equivalent, %.2f ns critical path  (%.2f× bank overlap)\n",
		st.BusyNs, st.CriticalPathNs, st.Speedup())
	m["batch.critical_path_ns"] = st.CriticalPathNs
	m["batch.speedup_modeled"] = st.Speedup()
	m["batch.instr_per_sec"] = float64(instrs) / batched.Seconds()
	m["verify.plans_checked"] = float64(sys.VerifiedPlans())
	return nil
}
