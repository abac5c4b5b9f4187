package ctrl

// Tests for the prepare-once/execute-many batch path and the ownership
// of a prepared batch's storage.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/ops"
	"simdram/internal/raceflag"
	"simdram/internal/uprog"
)

// TestTemplatesShared checks that units of one geometry share one
// template per program, so binding a placement never resolves again.
func TestTemplatesShared(t *testing.T) {
	r := newBatchRig(t)
	if r.unit.template(r.prog) != newBatchRig(t).unit.template(r.prog) {
		t.Error("two units of one geometry built separate templates")
	}
}

// TestRunReleasedPreparedPanics pins the ownership contract: a
// released batch has handed its storage back, so running it again is
// a bug that must fail loudly instead of running whatever batch reuses
// the storage.
func TestRunReleasedPreparedPanics(t *testing.T) {
	r := newBatchRig(t)
	jobs := []Job{{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}}}
	pb, err := r.unit.Prepare(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.unit.Run(pb, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	pb.Release()
	pb.Release() // a second release is a no-op
	if pb.n != 1 {
		t.Errorf("job count after Release = %d, want 1", pb.n)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "released") {
			t.Errorf("Run of a released Prepared: recovered %v, want a panic naming the release", r)
		}
	}()
	r.unit.Run(pb, RunOpts{})
}

// TestReleasedStorageLeavesKeptBatches checks that recycling is
// confined to released batches: a kept batch still computes its own
// placement after many one-shot batches on other placements were
// prepared into recycled storage, run and released, and each one-shot
// batch computes exactly what a fresh one does.
func TestReleasedStorageLeavesKeptBatches(t *testing.T) {
	r := newBatchRig(t)
	rng := rand.New(rand.NewSource(5))
	keptJobs := []Job{{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}}}
	kept, err := r.unit.Prepare(keptJobs)
	if err != nil {
		t.Fatal(err)
	}
	other := r.bind
	other.DstBase += 4 * r.w
	for i := 0; i < 200; i++ {
		bank, sub := 1+i%(r.cfg.Banks-1), i%r.cfg.SubarraysPerBank
		want := r.seed(t, rng, bank, sub)
		jobs := []Job{
			{Program: r.prog, Segments: []Segment{{Bank: bank, Sub: sub, Binding: r.bind}}},
			{Program: r.prog, Segments: []Segment{{Bank: bank, Sub: sub, Binding: other}}},
		}
		pb, err := r.unit.Prepare(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.unit.Run(pb, RunOpts{}); err != nil {
			t.Fatal(err)
		}
		pb.Release()
		r.checkDst(t, bank, sub, r.bind.DstBase, want)
		r.checkDst(t, bank, sub, other.DstBase, want)
		if i%50 == 0 {
			want0 := r.seed(t, rng, 0, 0)
			if _, _, err := r.unit.Run(kept, RunOpts{}); err != nil {
				t.Fatal(err)
			}
			r.checkDst(t, 0, 0, r.bind.DstBase, want0)
		}
	}
}

// TestPrepareManySources binds and runs a μProgram of more than three
// source operands, which the ISA cannot encode but the control unit
// accepts.
func TestPrepareManySources(t *testing.T) {
	r := newBatchRig(t)
	var red *ops.Def
	for _, d := range ops.Catalog() {
		if d.Arity < 0 {
			d := d
			red = &d
			break
		}
	}
	if red == nil {
		t.Skip("no N-ary operation in the catalog")
	}
	p, err := r.unit.Program(*red, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := uprog.Binding{SrcBase: []int{0, 4, 8, 12}, DstBase: 16, ScratchBase: r.cfg.DataRows() - p.NumScratch}
	pb, err := r.unit.Prepare([]Job{{Program: p, Segments: []Segment{{Binding: b}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.unit.Run(pb, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	pb.Release()
}

// TestPrepareReleaseAllocBudget gates the recycling itself: once a
// released batch of the same shape is in the pool, a Prepare allocates
// only its Prepared header.
func TestPrepareReleaseAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector allocates and drops pooled storage; gate runs in the non-race CI job")
	}
	r := newBatchRig(t)
	jobs := []Job{
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}, {Bank: 1, Sub: 0, Binding: r.bind}}},
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 1, Binding: r.bind}}, Deps: []int{0}},
	}
	cycle := func() {
		pb, err := r.unit.Prepare(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.unit.Run(pb, RunOpts{}); err != nil {
			t.Fatal(err)
		}
		pb.Release()
	}
	cycle()
	// A garbage collection inside the measurement empties the pool, so
	// allow the odd refill.
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 2 {
		t.Fatalf("Prepare/Run/Release allocated %.1f times, want at most 2", allocs)
	}
}

// TestPreparedReuse pins the bind-once/run-many contract: one Prepare,
// many Run calls, identical results and stats every time.
func TestPreparedReuse(t *testing.T) {
	r := newBatchRig(t)
	rng := rand.New(rand.NewSource(11))
	want0 := r.seed(t, rng, 0, 0)
	want1 := r.seed(t, rng, 1, 0)
	jobs := []Job{
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}},
		{Program: r.prog, Segments: []Segment{{Bank: 1, Sub: 0, Binding: r.bind}}},
	}
	pb, err := r.unit.Prepare(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if pb.n != 2 {
		t.Fatalf("job count = %d, want 2", pb.n)
	}
	var prev BatchStats
	for run := 0; run < 3; run++ {
		st, durNs, err := r.unit.Run(pb, RunOpts{})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if len(durNs) != 2 {
			t.Fatalf("run %d: durNs has %d entries, want 2", run, len(durNs))
		}
		if run > 0 && st != prev {
			t.Fatalf("run %d stats %+v differ from first run %+v", run, st, prev)
		}
		prev = st
		r.checkDst(t, 0, 0, r.bind.DstBase, want0)
		r.checkDst(t, 1, 0, r.bind.DstBase, want1)
	}
}

// TestPreparedMatchesBatchProfile checks the per-job profile Run
// returns: job i's modeled busy time is its μProgram latency times the
// segment count on its busiest bank, the profile sums to the batch's
// serial-equivalent BusyNs, and a second Prepare of the same jobs
// reports identical stats.
func TestPreparedMatchesBatchProfile(t *testing.T) {
	r := newBatchRig(t)
	rng := rand.New(rand.NewSource(17))
	r.seed(t, rng, 0, 0)
	r.seed(t, rng, 0, 1)
	r.seed(t, rng, 1, 0)
	jobs := []Job{
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}},
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 1, Binding: r.bind}, {Bank: 1, Sub: 0, Binding: r.bind}}, Deps: []int{0}},
	}
	lat := r.prog.LatencyNs(r.cfg.Timing)
	var first BatchStats
	for pass := 0; pass < 2; pass++ {
		pb, err := r.unit.Prepare(jobs)
		if err != nil {
			t.Fatal(err)
		}
		st, durNs, err := r.unit.Run(pb, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(durNs) != 2 || durNs[0] != lat || durNs[1] != lat {
			t.Fatalf("per-job profile %v, want [%v %v] (at most one segment per bank)", durNs, lat, lat)
		}
		if !approx(durNs[0]+durNs[1], st.BusyNs) {
			t.Errorf("profile sums to %v, batch BusyNs %v", durNs[0]+durNs[1], st.BusyNs)
		}
		if pass == 0 {
			first = st
		} else if st != first {
			t.Fatalf("re-prepared batch stats %+v != first %+v", st, first)
		}
	}
}

// TestPreparedPlanZeroAllocPerRun is the acceptance gate from the
// issue: steady-state execution of a cached plan's μPrograms performs
// zero heap allocations per run. The per-μProgram kernel of a prepared
// batch is RunView over a bound view; this replays exactly the view a
// Prepare stored.
func TestPreparedPlanZeroAllocPerRun(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector allocates; gate runs in the non-race CI job")
	}
	r := newBatchRig(t)
	jobs := []Job{{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}}}
	pb, err := r.unit.Prepare(jobs)
	if err != nil {
		t.Fatal(err)
	}
	v := &pb.b.views[0]
	sa := r.mod.Subarray(0, 0)
	allocs := testing.AllocsPerRun(20, func() { uprog.RunView(sa, v) })
	if allocs != 0 {
		t.Fatalf("cached-plan μProgram run allocated %.1f times, want 0", allocs)
	}
}

// TestPrepareVerifyRejectsInvalidCommands checks the control unit's
// half of validate-once: a μProgram op the DRAM commands would refuse
// fails Prepare — naming the op — before any command executes.
func TestPrepareVerifyRejectsInvalidCommands(t *testing.T) {
	src := uprog.Ref{Space: uprog.SpaceSrc}
	dst := uprog.Ref{Space: uprog.SpaceDst}
	bad := map[string]uprog.MicroOp{
		"repeated T row":     {Kind: uprog.OpAP, T: [3]int{0, 1, 1}},
		"C0 destination":     {Kind: uprog.OpAAP, Src: src, Dsts: []uprog.Ref{{Space: uprog.SpaceC0}}},
		"multi-row data dst": {Kind: uprog.OpAAP, Src: src, Dsts: []uprog.Ref{{Space: uprog.SpaceT}, dst}},
	}
	for name, op := range bad {
		r := newBatchRig(t)
		p := &uprog.Program{Name: "bad", Width: r.w, NumSrc: 2, DstWidth: r.w, NumScratch: 4,
			Ops: []uprog.MicroOp{{Kind: uprog.OpAAP, Src: src, Dsts: []uprog.Ref{dst}}, op}}
		jobs := []Job{{Program: p, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}}}
		if _, err := r.unit.Prepare(jobs); err == nil || !strings.Contains(err.Error(), "op 1:") {
			t.Errorf("%s: Prepare error %v, want one naming op 1", name, err)
		}
		if st := r.mod.Stats(); st != (dram.Stats{}) {
			t.Errorf("%s: commands ran before Prepare failed: %v", name, st)
		}
	}
}

func BenchmarkResolvedPreparedRun(b *testing.B) {
	r := newBatchRig(b)
	jobs := []Job{
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}},
		{Program: r.prog, Segments: []Segment{{Bank: 1, Sub: 0, Binding: r.bind}}},
	}
	pb, err := r.unit.Prepare(jobs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.unit.Run(pb, RunOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}
