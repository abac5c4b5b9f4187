package ctrl

// Tests for the unit-level view cache and the prepare-once/execute-many
// batch path.

import (
	"math/rand"
	"strings"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/ops"
	"simdram/internal/raceflag"
	"simdram/internal/uprog"
)

func TestViewCacheReuse(t *testing.T) {
	r := newBatchRig(t)
	u := r.unit
	seg := Segment{Bank: 0, Sub: 0, Binding: r.bind}

	v1, err := u.view(r.prog, seg)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := u.view(r.prog, seg)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Error("same (program, binding, subarray) must return the cached view pointer")
	}
	if got := u.ViewCacheSize(); got != 1 {
		t.Errorf("ViewCacheSize = %d, want 1", got)
	}

	other := seg
	other.Binding.DstBase += r.prog.DstWidth
	v3, err := u.view(r.prog, other)
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Error("distinct bindings must bind distinct views")
	}
	// A view shares one subarray's rows, so the same binding on another
	// subarray is another view.
	v4, err := u.view(r.prog, Segment{Bank: 1, Sub: 0, Binding: r.bind})
	if err != nil {
		t.Fatal(err)
	}
	if v4 == v1 {
		t.Error("distinct subarrays must bind distinct views")
	}
	if got := u.ViewCacheSize(); got != 3 {
		t.Errorf("ViewCacheSize = %d, want 3", got)
	}
	// Units of one geometry share one template per program.
	if u.template(r.prog) != newBatchRig(t).unit.template(r.prog) {
		t.Error("two units of one geometry built separate templates")
	}
}

func TestViewCacheBypassesManySources(t *testing.T) {
	r := newBatchRig(t)
	u := r.unit
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
	p, err := u.Program(*red, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := uprog.Binding{SrcBase: []int{0, 4, 8, 12}, DstBase: 16, ScratchBase: 32}
	if _, err := u.view(p, Segment{Binding: b}); err != nil {
		t.Fatal(err)
	}
	if got := u.ViewCacheSize(); got != 0 {
		t.Errorf("binding with >3 sources must bypass the cache, size = %d", got)
	}
}

// TestViewCacheHitZeroAlloc gates the steady-state lookup: a cache hit
// must not touch the heap.
func TestViewCacheHitZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector allocates; gate runs in the non-race CI job")
	}
	r := newBatchRig(t)
	u := r.unit
	seg := Segment{Bank: 0, Sub: 0, Binding: r.bind}
	if _, err := u.view(r.prog, seg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := u.view(r.prog, seg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("view-cache hit allocated %.1f times, want 0", allocs)
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
	pb, err := r.unit.Prepare(jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Jobs() != 2 {
		t.Fatalf("Jobs() = %d, want 2", pb.Jobs())
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
		pb, err := r.unit.Prepare(jobs, false)
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
// batch is RunView over a cached view; this replays exactly the view a
// Prepare stored.
func TestPreparedPlanZeroAllocPerRun(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector allocates; gate runs in the non-race CI job")
	}
	r := newBatchRig(t)
	jobs := []Job{{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}}}
	pb, err := r.unit.Prepare(jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	sv := pb.views[0][0][0]
	if sv.err != nil {
		t.Fatal(sv.err)
	}
	sa := r.mod.Subarray(0, 0)
	allocs := testing.AllocsPerRun(20, func() { uprog.RunView(sa, sv.view) })
	if allocs != 0 {
		t.Fatalf("cached-plan μProgram run allocated %.1f times, want 0", allocs)
	}
}

// TestPrepareVerifyRejectsInvalidCommands checks the control unit's
// half of validate-once: with plan verification on, a μProgram op the
// DRAM commands would refuse fails Prepare — naming the op — before
// any command executes; with it off, the same op fails its job at
// issue time instead of panicking inside the subarray.
func TestPrepareVerifyRejectsInvalidCommands(t *testing.T) {
	src := uprog.Ref{Space: uprog.SpaceSrc}
	dst := uprog.Ref{Space: uprog.SpaceDst}
	bad := map[string]uprog.MicroOp{
		"repeated T row":     {Kind: uprog.OpAP, T: [3]int{0, 1, 1}},
		"C0 destination":     {Kind: uprog.OpAAP, Src: src, Dsts: []uprog.Ref{{Space: uprog.SpaceC0}}},
		"multi-row data dst": {Kind: uprog.OpAAP, Src: src, Dsts: []uprog.Ref{{Space: uprog.SpaceT}, dst}},
	}
	for name, op := range bad {
		for _, verify := range []bool{true, false} {
			r := newBatchRig(t)
			p := &uprog.Program{Name: "bad", Width: r.w, NumSrc: 2, DstWidth: r.w, NumScratch: 4,
				Ops: []uprog.MicroOp{{Kind: uprog.OpAAP, Src: src, Dsts: []uprog.Ref{dst}}, op}}
			jobs := []Job{{Program: p, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}}}
			pb, err := r.unit.Prepare(jobs, verify)
			if verify {
				if err == nil || !strings.Contains(err.Error(), "op 1:") {
					t.Errorf("%s: Prepare error %v, want one naming op 1", name, err)
				}
				if st := r.mod.Stats(); st != (dram.Stats{}) {
					t.Errorf("%s: commands ran before Prepare failed: %v", name, st)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: Prepare without verification: %v", name, err)
			}
			if _, _, err := r.unit.Run(pb, RunOpts{}); err == nil || !strings.Contains(err.Error(), "op 1:") {
				t.Errorf("%s: Run error %v, want one naming op 1", name, err)
			}
		}
	}
}

func BenchmarkResolvedPreparedRun(b *testing.B) {
	r := newBatchRig(b)
	jobs := []Job{
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}},
		{Program: r.prog, Segments: []Segment{{Bank: 1, Sub: 0, Binding: r.bind}}},
	}
	pb, err := r.unit.Prepare(jobs, false)
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
