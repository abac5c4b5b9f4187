// Package rowhammer analyzes SIMDRAM command streams for RowHammer
// exposure — the third system-integration challenge of the paper (§4):
// in-DRAM computation activates compute rows at rates normal workloads
// never reach, so a μProgram could unintentionally (or, crafted by an
// attacker, deliberately) disturb the rows physically adjacent to the
// compute region.
//
// The model counts per-row activations of a μProgram, scales them to a
// refresh window (tREFW), and compares each row's aggressor count with
// the technology's RowHammer threshold. The mitigation the analysis
// motivates is the paper's: the compute region's neighbors are either
// buffer rows (unused) or are refreshed proactively by the control unit.
package rowhammer

import (
	"fmt"
	"sort"

	"simdram/internal/dram"
	"simdram/internal/uprog"
)

// Thresholds for common DRAM generations: the minimum single-aggressor
// activation count observed to flip a victim bit (Kim et al., ISCA 2020).
// DDR4's is the one the rowhammer experiment and simdram-synth apply.
const (
	// ThresholdDDR3 is the older, less vulnerable generation.
	//
	//simdram:testapi a row of the cited threshold table, kept beside the DDR4 value in use
	ThresholdDDR3 = 139_000
	ThresholdDDR4 = 50_000
	// ThresholdLPDD4: scaled nodes are markedly more vulnerable.
	//
	//simdram:testapi a row of the cited threshold table, kept beside the DDR4 value in use
	ThresholdLPDD4 = 20_000
)

// TREFWns is the DDR4 refresh window (64 ms) in nanoseconds.
const TREFWns = 64e6

// RowClass labels the kind of row an activation targets.
type RowClass uint8

// Row classes of a μProgram's activations.
const (
	ClassData RowClass = iota // operand/destination/scratch data rows
	ClassCompute
	ClassControl
)

func (c RowClass) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassCompute:
		return "compute"
	case ClassControl:
		return "control"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// RowStat is the activation count of one symbolic row.
type RowStat struct {
	Ref   uprog.Ref
	Class RowClass
	// ActsPerExec counts activations in one μProgram execution.
	ActsPerExec int
	// ActsPerWindow extrapolates to back-to-back executions for a full
	// refresh window — the worst-case hammer rate.
	ActsPerWindow int64
}

// Report is the RowHammer exposure analysis of one μProgram.
type Report struct {
	Program        string
	LatencyNs      float64
	ExecsPerWindow int64
	Rows           []RowStat // sorted by ActsPerWindow, descending
}

// Analyze counts per-row activations of p under the given timing.
//
// Activation accounting per command: an AAP activates its source row and
// its destination rows; an AP activates the three TRA rows; a MajCopy
// activates the TRA rows and the destinations.
func Analyze(p *uprog.Program, t dram.Timing) Report {
	counts := map[uprog.Ref]int{}
	bump := func(r uprog.Ref) { counts[r]++ }
	for _, op := range p.Ops {
		switch op.Kind {
		case uprog.OpAAP:
			bump(op.Src)
			for _, d := range op.Dsts {
				bump(d)
			}
		case uprog.OpAP:
			for _, tr := range op.T {
				bump(uprog.Ref{Space: uprog.SpaceT, Idx: tr})
			}
		case uprog.OpMajCopy:
			for _, tr := range op.T {
				bump(uprog.Ref{Space: uprog.SpaceT, Idx: tr})
			}
			for _, d := range op.Dsts {
				bump(d)
			}
		}
	}
	lat := p.LatencyNs(t)
	execs := int64(TREFWns / lat)
	if execs < 1 {
		execs = 1
	}
	rep := Report{Program: p.Name, LatencyNs: lat, ExecsPerWindow: execs}
	for ref, n := range counts {
		rep.Rows = append(rep.Rows, RowStat{
			Ref:           ref,
			Class:         classify(ref),
			ActsPerExec:   n,
			ActsPerWindow: int64(n) * execs,
		})
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].ActsPerWindow != rep.Rows[j].ActsPerWindow {
			return rep.Rows[i].ActsPerWindow > rep.Rows[j].ActsPerWindow
		}
		return refLess(rep.Rows[i].Ref, rep.Rows[j].Ref)
	})
	return rep
}

func classify(r uprog.Ref) RowClass {
	switch r.Space {
	case uprog.SpaceT, uprog.SpaceDCC, uprog.SpaceDCCN:
		return ClassCompute
	case uprog.SpaceC0, uprog.SpaceC1:
		return ClassControl
	default:
		return ClassData
	}
}

func refLess(a, b uprog.Ref) bool {
	if a.Space != b.Space {
		return a.Space < b.Space
	}
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	return a.Idx < b.Idx
}

// MaxHammer returns the hottest row's activations per refresh window.
func (r Report) MaxHammer() int64 {
	if len(r.Rows) == 0 {
		return 0
	}
	return r.Rows[0].ActsPerWindow
}

// Exceeds reports whether any row's window activation count crosses the
// threshold — i.e. whether neighbors of that row need mitigation.
func (r Report) Exceeds(threshold int64) bool {
	return r.MaxHammer() >= threshold
}

// VictimRows lists the symbolic rows whose physical neighbors need
// protection (buffer rows or proactive refresh) at the given threshold.
//
//simdram:testapi the paper's RowHammer analysis: which rows a mitigation must protect
func (r Report) VictimRows(threshold int64) []uprog.Ref {
	var out []uprog.Ref
	for _, rs := range r.Rows {
		if rs.ActsPerWindow >= threshold {
			out = append(out, rs.Ref)
		}
	}
	return out
}

// MitigationRefreshes returns how many extra neighbor refreshes per
// refresh window the control unit must issue to protect victims at the
// given threshold: each aggressor needs its two neighbors refreshed once
// per threshold-worth of activations.
func (r Report) MitigationRefreshes(threshold int64) int64 {
	var total int64
	for _, rs := range r.Rows {
		if rs.ActsPerWindow >= threshold {
			total += 2 * (rs.ActsPerWindow / threshold)
		}
	}
	return total
}

func (r Report) String() string {
	s := fmt.Sprintf("rowhammer report for %s: %.0f ns/exec, %d execs/window, hottest row %d acts/window\n",
		r.Program, r.LatencyNs, r.ExecsPerWindow, r.MaxHammer())
	for i, rs := range r.Rows {
		if i >= 8 {
			s += fmt.Sprintf("  … %d more rows\n", len(r.Rows)-i)
			break
		}
		s += fmt.Sprintf("  %-10s %-8s %6d acts/exec  %12d acts/window\n",
			rs.Ref, rs.Class, rs.ActsPerExec, rs.ActsPerWindow)
	}
	return s
}
