package ctrl

// Attribution is a per-bank resource-usage sink. Every Unit owns one
// (Unit.Attribution), sized to its module's banks by New, and every
// successful Run *accumulates* into it, so it bills a whole session of
// runs, or, Reset between jobs, one job. A canceled run adds nothing:
// its partial DRAM effects are not billed, matching the error contract
// that stats are not returned. Slices are indexed by bank.
//
// Semantics of the fields, per bank b:
//   - BusyNs[b]: modeled time bank b spent executing (μProgram latency
//     × segments of each job placed on b) — the deterministic timing
//     model's per-bank bill, summing to the batch's serial-equivalent
//     BusyNs across banks.
//   - Commands[b]: DRAM commands issued to bank b.
//   - EnergyPJ[b]: energy of the commands that ran on bank b, measured
//     from the subarray stats deltas during the run; bank sums equal
//     the batch's EnergyPJ exactly.
//
// SpanNs accumulates the batches' modeled critical paths — the
// DRAM-time a tenant is billed for under the overlap-aware model.
type Attribution struct {
	BusyNs   []float64
	Commands []int64
	EnergyPJ []float64
	SpanNs   float64
}

// Reset zeroes the sink in place, keeping capacity.
func (a *Attribution) Reset() {
	for i := range a.BusyNs {
		a.BusyNs[i] = 0
	}
	for i := range a.Commands {
		a.Commands[i] = 0
	}
	for i := range a.EnergyPJ {
		a.EnergyPJ[i] = 0
	}
	a.SpanNs = 0
}

// TotalCommands returns the sum of the per-bank command counts.
func (a *Attribution) TotalCommands() int64 {
	var t int64
	for _, v := range a.Commands {
		t += v
	}
	return t
}
