package ctrl

// Attribution is a per-bank resource-usage sink for prepared-batch
// execution: Run (through RunOpts.Attr) *accumulates* into it, so one
// Attribution can bill a whole session of runs, or be Reset between
// jobs for per-job attribution. Slices are indexed by bank and grown
// on demand; a caller that reuses one Attribution per worker pays no
// steady-state allocations.
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

// Banks returns the number of banks the sink currently covers.
func (a *Attribution) Banks() int { return len(a.BusyNs) }

// TotalBusyNs returns the sum of the per-bank busy bills (the batches'
// serial-equivalent time).
func (a *Attribution) TotalBusyNs() float64 {
	var t float64
	for _, v := range a.BusyNs {
		t += v
	}
	return t
}

// TotalEnergyPJ returns the sum of the per-bank energy bills.
func (a *Attribution) TotalEnergyPJ() float64 {
	var t float64
	for _, v := range a.EnergyPJ {
		t += v
	}
	return t
}

// TotalCommands returns the sum of the per-bank command counts.
func (a *Attribution) TotalCommands() int64 {
	var t int64
	for _, v := range a.Commands {
		t += v
	}
	return t
}

// grow ensures the sink covers at least n banks, preserving totals.
func (a *Attribution) grow(n int) {
	if len(a.BusyNs) >= n {
		return
	}
	busy := make([]float64, n)
	copy(busy, a.BusyNs)
	cmds := make([]int64, n)
	copy(cmds, a.Commands)
	energy := make([]float64, n)
	copy(energy, a.EnergyPJ)
	a.BusyNs, a.Commands, a.EnergyPJ = busy, cmds, energy
}
