package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"simdram"
	"simdram/internal/dram"
	"simdram/internal/graph"
	"simdram/internal/isa"
	"simdram/internal/obs"
	"simdram/internal/ops"
	"simdram/internal/sched"
	"simdram/internal/uprog"
	"simdram/internal/verify"
	"simdram/internal/vertical"
)

// runTraced is the --trace 1 run: the per-layer metrics. Span-derived
// numbers come from a serve workload's own traces; the rest is a ledger
// that times each layer's entry point from outside, on the workload's
// own operations and geometry. The measured window runs with tracing
// off (a serve workload then runs a second, traced window), so
// allocation counts and the tracing overhead are read against the
// untraced program. Like the end-to-end metrics, every host time is
// read at the reference host speed (see calibrate).
func runTraced(o options) (*result, error) {
	res := &result{}
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
	res.add("dram.commands_per_job", ex.commands, "count")
	if err := w.layers(o, res); err != nil {
		return nil, err
	}
	in, err := w.ledgerIn()
	if err != nil {
		return nil, err
	}
	if err := ledger(in, res); err != nil {
		return nil, err
	}
	// The μProgram kernels' serial host time per unit of execution-call
	// time; above 1 where the control unit overlaps kernels on cores.
	run, _ := res.get("uprog.run_us")
	kernel, _ := res.get("uprog.kernel_us")
	res.add("uprog.kernel_share", kernel/run, "ratio")
	return res, nil
}

// hostWindow runs the untraced measured window and records the Go
// runtime's allocation and GC deltas over it.
func hostWindow(w workload, o options, d time.Duration, res *result) (window, error) {
	win, err := runWindow(w.clients(), d, o.jobsPerClient, w.job)
	if err != nil {
		return win, err
	}
	res.attempted += win.jobs
	jobs := float64(win.jobs)
	res.add("host.allocs_per_job", float64(win.mallocs)/jobs, "count")
	res.add("host.alloc_bytes_per_job", float64(win.allocBytes)/jobs, "B")
	res.add("host.gc_per_kjob", 1000*float64(win.gcs)/jobs, "count")
	return win, nil
}

// spanMetrics maps the server's span names onto per-layer metrics of
// their self time; spans under any other name fold into trace.other_us.
var spanMetrics = map[string]string{
	"job":          "server.job_self_us",
	"queue":        "sched.queue_us",
	"compile":      "graph.compile_us",
	"cache-lookup": "graph.cache_lookup_us",
	"schedule":     "graph.schedule_us",
	"lower":        "graph.lower_us",
	"prepare":      "ctrl.prepare_us",
	"resolve":      "ctrl.resolve_us",
	"execute":      "ctrl.execute_us",
	"run":          "uprog.run_us",
	"gather":       "vertical.gather_us",
}

// spanOrder lists spanMetrics' metrics in report order.
var spanOrder = []string{
	"sched.queue_us", "server.job_self_us", "graph.compile_us", "graph.cache_lookup_us",
	"graph.schedule_us", "graph.lower_us", "ctrl.prepare_us", "ctrl.resolve_us",
	"ctrl.execute_us", "uprog.run_us", "vertical.gather_us", "trace.other_us",
}

func (w *serveWorkload) layers(o options, res *result) error {
	half := seconds(o.seconds / 2)
	st0, v0 := w.srv.Stats(), w.srv.VerifiedPlans()
	win, err := hostWindow(w, o, half, res)
	if err != nil {
		return err
	}
	st := w.srv.Stats()
	jobs := float64(win.jobs)
	hits := float64(st.Cache.Hits - st0.Cache.Hits)
	misses := float64(st.Cache.Misses - st0.Cache.Misses)
	res.add("graph.cache_hit_rate", hits/(hits+misses), "ratio")
	res.add("graph.evictions_per_job", float64(st.Cache.Evicted-st0.Cache.Evicted)/jobs, "count")
	res.add("verify.plans_per_job", float64(w.srv.VerifiedPlans()-v0)/jobs, "count")
	res.add("cluster.host_vs_single", 0, "ratio")

	t := w.traced()
	defer t.close()
	if err := t.setup(); err != nil {
		return err
	}
	if err := warm(t, o); err != nil {
		return err
	}
	t.srv.ResetTraces()
	for c := range t.traceLats {
		t.traceLats[c] = t.traceLats[c][:0]
	}
	twin, err := runWindow(t.clients(), half, o.jobsPerClient, t.job)
	if err != nil {
		return err
	}
	res.attempted += twin.jobs
	res.add("obs.trace_overhead", 1-twin.cal.rate/win.cal.rate, "ratio")
	return foldTraces(t.srv.Traces(), t.traceLats, twin.speed, res)
}

// foldTraces turns the recorder's span trees into per-layer self time
// per job. A span's self time is its duration less the part of it its
// child spans cover; the audit requires every job's self times to sum
// exactly to its root span, i.e. children nest inside their parents
// without overlapping. Coverage compares the root spans with the
// client-side latencies of the same jobs. Times are divided by the
// window's host-speed factor.
func foldTraces(traces []simdram.JobTrace, lats [][]traceLat, speed float64, res *result) error {
	latOf := map[uint64]time.Duration{}
	for _, l := range lats {
		for _, t := range l {
			latOf[t.id] = t.lat
		}
	}
	self := map[string]int64{}
	var jobs, spanNs, latNs int64
	for _, jt := range traces {
		lat, ok := latOf[jt.ID]
		if !ok {
			continue
		}
		if jt.Err != "" {
			return fmt.Errorf("traced job %d failed: %s", jt.ID, jt.Err)
		}
		var sum int64
		for i, ns := range selfTimes(jt.Spans) {
			name, ok := spanMetrics[jt.Spans[i].Name]
			if !ok {
				name = "trace.other_us"
			}
			self[name] += ns
			sum += ns
		}
		root := jt.Spans[0].DurNs()
		if sum != root {
			return fmt.Errorf("trace audit: job %d self times sum to %dns, its job span is %dns", jt.ID, sum, root)
		}
		jobs++
		spanNs += root
		latNs += lat.Nanoseconds()
	}
	if jobs == 0 {
		return fmt.Errorf("no traced job of the measured window was retained")
	}
	perJobUs := func(ns int64) float64 { return float64(ns) / float64(jobs) / 1e3 / speed }
	for _, name := range spanOrder {
		res.add(name, perJobUs(self[name]), "us")
	}
	res.add("server.unattributed_us", perJobUs(latNs-spanNs), "us")
	res.add("trace.coverage", float64(spanNs)/float64(latNs), "ratio")
	return nil
}

// selfTimes returns each span's duration less the union of its
// children's intervals clipped to it.
func selfTimes(spans []simdram.TraceSpan) []int64 {
	children := make([][]int, len(spans))
	for i, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		var ivs [][2]int64
		for _, c := range children[i] {
			s, e := max(spans[c].StartNs, sp.StartNs), min(spans[c].EndNs, sp.EndNs)
			if e > s {
				ivs = append(ivs, [2]int64{s, e})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, end int64
		for _, iv := range ivs {
			if iv[0] < end {
				iv[0] = end
			}
			if iv[1] > iv[0] {
				covered += iv[1] - iv[0]
				end = iv[1]
			}
		}
		self[i] = sp.DurNs() - covered
	}
	return self
}

// directLayers reports a direct workload's window. Its job is one
// public execution call with no scheduler, plan cache, lowering,
// verification or gather on the per-job path, so those layers read 0
// and uprog.run_us is the call's median latency.
func directLayers(w workload, o options, res *result) (window, error) {
	win, err := hostWindow(w, o, seconds(o.seconds), res)
	if err != nil {
		return win, err
	}
	for _, name := range spanOrder {
		if name != "uprog.run_us" {
			res.add(name, 0, "us")
		}
	}
	res.add("uprog.run_us", win.cal.p50*1e3, "us")
	res.add("server.unattributed_us", 0, "us")
	res.add("trace.coverage", 0, "ratio")
	res.add("graph.cache_hit_rate", 0, "ratio")
	res.add("graph.evictions_per_job", 0, "count")
	res.add("verify.plans_per_job", 0, "count")
	res.add("obs.trace_overhead", 0, "ratio")
	return win, nil
}

func (w *replayWorkload) layers(o options, res *result) error {
	_, err := directLayers(w, o, res)
	res.add("cluster.host_vs_single", 0, "ratio")
	return err
}

// layers adds cluster.host_vs_single: the median ExecBatch host time
// over that of one System running the same instruction stream on the
// same total elements (batchgen.ProgramScaled's shape).
func (w *clusterWorkload) layers(o options, res *result) error {
	win, err := directLayers(w, o, res)
	if err != nil {
		return err
	}
	cfg := simdram.DefaultClusterConfig(clusterChannels).Channel
	sys, err := simdram.New(cfg)
	if err != nil {
		return err
	}
	defer sys.Close()
	n := len(w.inputs[0][0])
	prog, dsts, err := w.program(cfg, func(bank, sub int) (vector, error) {
		return sys.AllocVectorAt(n, 8, bank, sub)
	})
	if err != nil {
		return err
	}
	lats := make([]time.Duration, 0, 256)
	speed := calibrate()
	for i := 0; i < cap(lats)+16; i++ {
		start := time.Now()
		if _, err := sys.ExecBatch(prog); err != nil {
			return err
		}
		if i >= 16 {
			lats = append(lats, time.Since(start))
		}
	}
	got := make([][]uint64, len(dsts))
	for i, d := range dsts {
		if got[i], err = d.Load(); err != nil {
			return err
		}
	}
	if err := checkRoots("single-System sums", got, w.want); err != nil {
		return err
	}
	speed = (speed + calibrate()) / 2
	sortDurations(lats)
	res.add("cluster.host_vs_single", win.cal.p50/(quantile(lats, 0.5)/speed), "ratio")
	return nil
}

// ledgerIn is what the ledger times a workload's layers on: its
// channel geometry, its request shapes (nil when it compiles nothing),
// representative lowered programs, and the element widths it stores.
type ledgerIn struct {
	cfg    simdram.Config
	dags   []dag
	progs  []isa.Program
	widths []int
}

func (w *serveWorkload) ledgerIn() (ledgerIn, error) {
	in := ledgerIn{cfg: w.cfg.Channel, dags: w.shapes}
	sys, err := simdram.New(in.cfg)
	if err != nil {
		return in, err
	}
	defer sys.Close()
	seen := map[int]bool{}
	for _, d := range w.shapes {
		rng := rand.New(rand.NewSource(1))
		payload := make([][]uint64, d.numInputs())
		for k := range payload {
			payload[k] = randVec(rng, d.n, 0, 2)
		}
		roots := d.exprs(func(k, width int) *simdram.Expr { return simdram.Input(payload[k], width) })
		cp, err := sys.Compile(roots...)
		if err != nil {
			return in, err
		}
		in.progs = append(in.progs, cp.Program())
		cp.Free()
		for _, r := range roots {
			r.Result().Free()
		}
		for _, v := range d.vals {
			if v.in >= 0 && !seen[v.width] {
				seen[v.width] = true
				in.widths = append(in.widths, v.width)
			}
		}
	}
	return in, nil
}

func (w *replayWorkload) ledgerIn() (ledgerIn, error) {
	return ledgerIn{cfg: w.sys.Config(), dags: []dag{w.d}, progs: []isa.Program{w.cp.Program()}, widths: []int{8}}, nil
}

func (w *clusterWorkload) ledgerIn() (ledgerIn, error) {
	return ledgerIn{cfg: w.cl.Config().Channel, progs: []isa.Program{w.prog}, widths: []int{8}}, nil
}

// ledger times each layer's public entry point on the workload's own
// operations.
func ledger(in ledgerIn, res *result) error {
	cfg := in.cfg
	// graph: the cold-compile passes (IR build, fold, CSE, DCE, list
	// schedule, slot assignment) per request shape.
	cold := 0.0
	if len(in.dags) > 0 {
		cost := func(d ops.Def, w, n int) float64 {
			c, err := ops.CostNs(d, w, n, cfg.Variant, cfg.DRAM.Timing)
			if err != nil {
				return 1
			}
			return c
		}
		var err error
		cold = perCall(func() {
			for _, d := range in.dags {
				g, e := d.irGraph()
				if e != nil {
					err = e
					return
				}
				g.FoldConstants()
				g.CSE()
				g.DCE()
				graph.Assign(g, g.Schedule(cost), true)
			}
		}) / float64(len(in.dags))
		if err != nil {
			return err
		}
	}
	res.add("graph.cold_compile_us", cold/1e3, "us")

	// verify: the IR verifier's structural and hazard cross-check per
	// program (binding-dependent checks need the System's object table
	// and are not part of this number).
	var verr error
	vns := perCall(func() {
		for _, p := range in.progs {
			if err := verify.Program(p, verify.Options{}); err != nil {
				verr = err
			}
		}
	}) / float64(len(in.progs))
	if verr != nil {
		return fmt.Errorf("verify ledger: %w", verr)
	}
	res.add("verify.us_per_plan", vns/1e3, "us")

	if err := kernelLedger(in, res); err != nil {
		return err
	}

	// vertical: the transposition unit's layout conversion, per element
	// of one full segment at each stored width.
	var store, load float64
	rng := rand.New(rand.NewSource(1))
	lanes := cfg.DRAM.Cols
	for _, width := range in.widths {
		vals := randVec(rng, lanes, 0, 1<<min(width, 16))
		rows, err := vertical.ToVertical(vals, width, lanes)
		if err != nil {
			return err
		}
		store += perCall(func() { vertical.ToVertical(vals, width, lanes) })
		load += perCall(func() { vertical.ToHorizontal(rows, width, lanes) })
	}
	per := float64(len(in.widths) * lanes)
	res.add("vertical.store_ns_per_elem", store/per, "ns")
	res.add("vertical.load_ns_per_elem", load/per, "ns")

	// obs and sched: workload-independent fixed costs.
	h := obs.NewRegistry().Histogram("bench.observe")
	res.add("obs.observe_ns", perCall(func() {
		for i := 0; i < 1000; i++ {
			h.Observe(int64(i))
		}
	})/1000, "ns")
	tr := obs.NewTracer(1, obs.NewFlightRecorder(64, 16))
	res.add("obs.trace_start_ns", perCall(func() { tr.Finish(tr.Start()) }), "ns")
	s := sched.New(sched.Config{Workers: serveChannels, QueueDepth: 8 * serveChannels})
	defer s.Close()
	var serr error
	noop := func(int, <-chan struct{}) error { return nil }
	adm := perCall(func() {
		t, err := s.Submit(context.Background(), "bench", noop)
		if err == nil {
			err = t.Wait()
		}
		if err != nil {
			serr = err
		}
	})
	if serr != nil {
		return serr
	}
	res.add("sched.admit_dispatch_us", adm/1e3, "us")
	return nil
}

// kernelLedger times uprog.RunResolved for every (operation, width,
// arity) the workload's programs issue, on a dram.Subarray of the
// workload's geometry, and adds uprog.ns_per_cmd (host ns per DRAM
// command over the workload's command mix) and uprog.kernel_us (host
// time one job's μProgram runs take back to back, averaged over the
// representative programs).
func kernelLedger(in ledgerIn, res *result) error {
	type key struct {
		code     ops.Code
		width, n int
	}
	type kernel struct {
		ns   float64
		cmds int
	}
	cfg := in.cfg.DRAM
	sa := dram.NewSubarray(&cfg)
	kernels := map[key]kernel{}
	var totalNs, totalCmds float64
	for _, p := range in.progs {
		for _, ins := range p {
			if ins.Op == isa.OpTrspInit {
				continue
			}
			code, err := ins.Op.ToOp()
			if err != nil {
				return err
			}
			d, err := ops.ByCode(code)
			if err != nil {
				return err
			}
			k := key{code, int(ins.Width), d.EffArity(int(ins.N))}
			kn, ok := kernels[k]
			if !ok {
				syn, err := ops.SynthesizeCached(d, k.width, k.n, in.cfg.Variant)
				if err != nil {
					return err
				}
				prog := syn.Program
				var b uprog.Binding
				row := 0
				for _, sw := range d.SourceWidths(k.width, k.n) {
					b.SrcBase = append(b.SrcBase, row)
					row += sw
				}
				b.DstBase = row
				b.ScratchBase = cfg.DataRows() - prog.NumScratch
				st, err := uprog.Resolve(prog, b, cfg)
				if err != nil {
					return fmt.Errorf("kernel ledger %s/%d: %w", d.Name, k.width, err)
				}
				kn = kernel{ns: perCall(func() { uprog.RunResolved(sa, st) }), cmds: len(st.Ops)}
				kernels[k] = kn
			}
			segs := float64((int(ins.Size) + cfg.Cols - 1) / cfg.Cols)
			totalNs += segs * kn.ns
			totalCmds += segs * float64(kn.cmds)
		}
	}
	res.add("uprog.ns_per_cmd", totalNs/totalCmds, "ns")
	res.add("uprog.kernel_us", totalNs/float64(len(in.progs))/1e3, "us")
	return nil
}

// perCall returns fn's mean wall time in ns over repeated calls
// spanning at least 100ms, after one untimed call, at the reference
// host speed (the mean of the speed factors before and after).
func perCall(fn func()) float64 {
	fn()
	speed := calibrate()
	calls := 0
	start := time.Now()
	for time.Since(start) < 100*time.Millisecond {
		fn()
		calls++
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(calls)
	return ns / ((speed + calibrate()) / 2)
}
