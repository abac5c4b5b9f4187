package ctrl

// Tests for per-bank resource attribution and the allocation-free
// prepared-batch run path.

import (
	"math"
	"testing"

	"simdram/internal/raceflag"
)

// TestRunAttribution checks the unit's attribution sink against
// the batch's own aggregate stats: bank sums must equal the batch's
// commands and energy exactly and its serial-equivalent busy time up
// to float rounding, with the work landing on the banks that ran it.
func TestRunAttribution(t *testing.T) {
	r := newBatchRig(t)
	jobs := []Job{
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}},
		{Program: r.prog, Segments: []Segment{{Bank: 1, Sub: 0, Binding: r.bind}, {Bank: 1, Sub: 1, Binding: r.bind}}},
	}
	pb, err := r.unit.Prepare(jobs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.unit.Run(pb, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	at := r.unit.Attribution()
	if len(at.BusyNs) != r.mod.NumBanks() {
		t.Fatalf("bills cover %d banks, want %d", len(at.BusyNs), r.mod.NumBanks())
	}
	if got := at.TotalCommands(); got != st.Commands {
		t.Errorf("TotalCommands = %d, want batch Commands %d", got, st.Commands)
	}
	if got := sum(at.EnergyPJ); got != st.EnergyPJ {
		t.Errorf("energy bills sum to %v, want batch EnergyPJ %v", got, st.EnergyPJ)
	}
	if got := sum(at.BusyNs); math.Abs(got-st.BusyNs) > 1e-9*st.BusyNs {
		t.Errorf("busy bills sum to %v, want batch BusyNs %v", got, st.BusyNs)
	}
	if at.SpanNs != st.CriticalPathNs {
		t.Errorf("SpanNs = %v, want CriticalPathNs %v", at.SpanNs, st.CriticalPathNs)
	}
	// Job 0 put one segment on bank 0; job 1 put two on bank 1, so bank
	// 1 carries twice bank 0's busy time and commands, and banks >= 2
	// carry nothing.
	if at.BusyNs[0] <= 0 || at.BusyNs[1] != 2*at.BusyNs[0] {
		t.Errorf("bank busy = %v, want bank1 == 2×bank0 > 0", at.BusyNs[:2])
	}
	if at.Commands[1] != 2*at.Commands[0] {
		t.Errorf("bank commands = %v, want bank1 == 2×bank0", at.Commands[:2])
	}
	for b := 2; b < len(at.BusyNs); b++ {
		if at.BusyNs[b] != 0 || at.Commands[b] != 0 || at.EnergyPJ[b] != 0 {
			t.Errorf("bank %d billed %v/%d/%v, want idle banks unbilled", b, at.BusyNs[b], at.Commands[b], at.EnergyPJ[b])
		}
	}
}

// TestAttributionAccumulatesAndResets pins the sink contract: repeated
// runs accumulate, a canceled run adds nothing, Reset zeroes in place.
func TestAttributionAccumulatesAndResets(t *testing.T) {
	r := newBatchRig(t)
	jobs := []Job{{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}}}
	pb, err := r.unit.Prepare(jobs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.unit.Run(pb, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	at := r.unit.Attribution()
	one := sum(at.EnergyPJ)
	if one != st.EnergyPJ || one <= 0 {
		t.Fatalf("first run billed %v, want %v > 0", one, st.EnergyPJ)
	}
	if _, err := r.unit.Run(pb, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	canceled := make(chan struct{})
	close(canceled)
	if _, err := r.unit.Run(pb, RunOpts{Cancel: canceled}); err == nil {
		t.Fatal("a run canceled before its first job must fail")
	}
	if got := sum(at.EnergyPJ); got != 2*one {
		t.Errorf("two runs billed %v, want %v", got, 2*one)
	}
	if got := at.SpanNs; got != 2*st.CriticalPathNs {
		t.Errorf("two runs SpanNs %v, want %v", got, 2*st.CriticalPathNs)
	}
	at.Reset()
	if sum(at.BusyNs) != 0 || sum(at.EnergyPJ) != 0 || at.TotalCommands() != 0 || at.SpanNs != 0 {
		t.Error("Reset must zero the sink")
	}
	if len(at.BusyNs) != r.mod.NumBanks() {
		t.Error("Reset must keep capacity")
	}
}

// TestRunZeroAlloc gates the full run path — program-order dispatch,
// stream replay, stats and bill fold — at zero heap allocations per
// run. (The earlier TestPreparedPlanZeroAllocPerRun gates only the
// μProgram replay kernel; this covers everything around it.)
func TestRunZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector allocates; gate runs in the non-race CI job")
	}
	r := newBatchRig(t)
	jobs := []Job{
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}},
		{Program: r.prog, Segments: []Segment{{Bank: 1, Sub: 0, Binding: r.bind}}},
		{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 1, Binding: r.bind}}, Deps: []int{0}},
	}
	pb, err := r.unit.Prepare(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cancel plumbing before measuring.
	cancel := make(chan struct{})
	if _, err := r.unit.Run(pb, RunOpts{Cancel: cancel}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := r.unit.Run(pb, RunOpts{Cancel: cancel}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Run allocated %.1f times per run, want 0", allocs)
	}
}

// TestRunAttrSteadyZeroAlloc: billing into the unit's sink, Reset
// between runs as the serving layer does between jobs, stays
// allocation-free.
func TestRunAttrSteadyZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector allocates; gate runs in the non-race CI job")
	}
	r := newBatchRig(t)
	jobs := []Job{{Program: r.prog, Segments: []Segment{{Bank: 0, Sub: 0, Binding: r.bind}}}}
	pb, err := r.unit.Prepare(jobs)
	if err != nil {
		t.Fatal(err)
	}
	at := r.unit.Attribution()
	if _, err := r.unit.Run(pb, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		at.Reset()
		if _, err := r.unit.Run(pb, RunOpts{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state attributed run allocated %.1f times, want 0", allocs)
	}
}

// sum adds up per-bank bills.
func sum(bills []float64) float64 {
	var t float64
	for _, v := range bills {
		t += v
	}
	return t
}
