// Package reliability models SIMDRAM's process-variation analysis
// (paper §5): whether triple-row activation still resolves the correct
// majority as DRAM technology scales and cells become less uniform.
//
// Substitution note (see DESIGN.md): the paper runs SPICE Monte Carlo on
// a transistor-level sense-amplifier model. We reproduce the statistical
// experiment with the closed-form charge-sharing equation: three cells
// (capacitance Cc each, Gaussian variation σc) share charge with a
// bitline (capacitance Cb) precharged to Vdd/2, and the sense amplifier
// resolves the deviation against a Gaussian offset voltage (σsa). A TRA
// fails when the resolved value differs from the ideal majority.
package reliability

import (
	"fmt"
	"math/rand"
)

// Tech describes a DRAM technology node's electrical parameters.
type Tech struct {
	Name   string
	CellFF float64 // nominal cell capacitance Cc, femtofarads
	BitFF  float64 // bitline capacitance Cb, femtofarads
	VddV   float64
}

// Nodes returns the technology scaling ladder the paper sweeps: cell and
// bitline capacitance shrink together as the process scales down.
func Nodes() []Tech {
	return []Tech{
		{Name: "55nm", CellFF: 22, BitFF: 85, VddV: 1.2},
		{Name: "45nm", CellFF: 18, BitFF: 72, VddV: 1.2},
		{Name: "32nm", CellFF: 14, BitFF: 60, VddV: 1.2},
		{Name: "22nm", CellFF: 10, BitFF: 48, VddV: 1.2},
	}
}

// Variation describes manufacturing spread as fractions of nominal.
type Variation struct {
	CellSigma float64 // σ of cell capacitance, fraction of Cc
	SASigmaMV float64 // σ of sense-amplifier offset, millivolts
}

// Result summarizes a Monte Carlo run.
type Result struct {
	Trials   int
	Failures int
}

// FailureRate returns the per-TRA failure probability.
func (r Result) FailureRate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Failures) / float64(r.Trials)
}

// OperationFailureRate lifts a per-TRA failure rate to a whole operation
// with nTRA activations per lane: 1 - (1-p)^nTRA.
//
//simdram:testapi the paper's reliability analysis lifts per-TRA rates to whole operations
func OperationFailureRate(perTRA float64, nTRA int) float64 {
	ok := 1.0
	for i := 0; i < nTRA; i++ {
		ok *= 1 - perTRA
	}
	return 1 - ok
}

// SimulateTRA Monte Carlo simulates trials triple-row activations under
// the given technology and variation. Each trial draws three cell
// capacitances and a sense-amp offset, picks random stored bits, computes
// the bitline voltage after charge sharing, and checks the resolved bit
// against the ideal majority. Deterministic for a fixed seed.
func SimulateTRA(tech Tech, v Variation, trials int, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	res := Result{Trials: trials}
	half := tech.VddV / 2
	for t := 0; t < trials; t++ {
		bits := [3]bool{rng.Intn(2) == 1, rng.Intn(2) == 1, rng.Intn(2) == 1}
		want := btoi(bits[0])+btoi(bits[1])+btoi(bits[2]) >= 2

		// Charge sharing: V = (Cb·Vdd/2 + Σ Ci·Vi) / (Cb + Σ Ci).
		num := tech.BitFF * half
		den := tech.BitFF
		for _, b := range bits {
			ci := tech.CellFF * (1 + v.CellSigma*rng.NormFloat64())
			if ci < 0.1*tech.CellFF {
				ci = 0.1 * tech.CellFF // physical floor: a cell cannot vanish
			}
			vi := 0.0
			if b {
				vi = tech.VddV
			}
			num += ci * vi
			den += ci
		}
		vBit := num / den
		offset := (v.SASigmaMV / 1000) * rng.NormFloat64()
		sensed := vBit-half > offset
		if sensed != want {
			res.Failures++
		}
	}
	return res
}

// Sweep runs SimulateTRA across variation levels for one technology node,
// returning one Result per level.
func Sweep(tech Tech, cellSigmas []float64, saSigmaMV float64, trials int, seed int64) []Result {
	out := make([]Result, len(cellSigmas))
	for i, cs := range cellSigmas {
		out[i] = SimulateTRA(tech, Variation{CellSigma: cs, SASigmaMV: saSigmaMV}, trials, seed+int64(i))
	}
	return out
}

// SenseMarginMV returns the ideal (variation-free) sense margin of a TRA
// for the worst-case 2-vs-1 majority: the bitline deviation the sense amp
// must resolve. Larger margins mean more headroom against variation.
func SenseMarginMV(tech Tech) float64 {
	// Two cells at Vdd, one at 0 (or symmetric): deviation from Vdd/2.
	num := tech.BitFF*tech.VddV/2 + 2*tech.CellFF*tech.VddV
	den := tech.BitFF + 3*tech.CellFF
	return (num/den - tech.VddV/2) * 1000
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (t Tech) String() string {
	return fmt.Sprintf("%s (Cc=%.0ffF Cb=%.0ffF)", t.Name, t.CellFF, t.BitFF)
}
