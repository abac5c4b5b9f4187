package cluster

import "simdram/internal/ctrl"

// BatchStats aggregates per-channel batch execution under the cluster
// timing model: channels run concurrently, so work, commands, energy,
// and serial-equivalent time add across channels while the cluster
// makespan is the slowest channel's critical path.
type BatchStats struct {
	Instructions int64
	Commands     int64
	// BusyNs is the aggregate fabric work: the summed serial-equivalent
	// time of every channel's own sub-batch. It is not the cost of one
	// channel holding all the shards — a single channel overlaps a
	// multi-segment instruction across its banks, so that baseline can
	// only be measured by running the merged workload on one System
	// (cmd/simdram-bench -cluster does, and the
	// BenchmarkClusterExecBatch / BenchmarkClusterSingleSystem pair
	// reports both sides).
	BusyNs float64
	// CriticalPathNs is the cluster makespan: channels run concurrently,
	// so it is the maximum of the per-channel critical paths, not their
	// sum.
	CriticalPathNs float64
	// EnergyPJ is additive across channels: concurrency saves time, not
	// energy.
	EnergyPJ float64
	// ChannelUtilization[i] is channel i's critical path as a fraction
	// of the cluster makespan — 1.0 for the channel that bounds the
	// batch, lower for channels that finished early, 0 for idle ones.
	// The spread of these values is the shard-balance skew.
	ChannelUtilization []float64
	// ChannelEnergyPJ[i] is channel i's share of EnergyPJ, so channel
	// skew is visible in energy terms, not just time; the entries sum to
	// EnergyPJ.
	ChannelEnergyPJ []float64
}

// Merge folds the per-channel stats (index = channel) into cluster
// stats. Channels that ran nothing contribute zero everywhere and show
// up as utilization 0.
func Merge(per []ctrl.BatchStats) BatchStats {
	var m ctrl.BatchStats
	for _, st := range per {
		m.MergeParallel(st)
	}
	out := BatchStats{
		Instructions:       m.Instructions,
		Commands:           m.Commands,
		BusyNs:             m.BusyNs,
		CriticalPathNs:     m.CriticalPathNs,
		EnergyPJ:           m.EnergyPJ,
		ChannelUtilization: make([]float64, len(per)),
		ChannelEnergyPJ:    make([]float64, len(per)),
	}
	for i, st := range per {
		out.ChannelEnergyPJ[i] = st.EnergyPJ
	}
	if m.CriticalPathNs > 0 {
		for i, st := range per {
			out.ChannelUtilization[i] = st.CriticalPathNs / m.CriticalPathNs
		}
	}
	return out
}

// Speedup returns the fabric-overlap factor: aggregate work divided by
// the cluster makespan, composing bank overlap inside each channel
// with channel overlap across the cluster. It is an upper bound on the
// gain over one System actually holding all the data (which also
// overlaps each instruction's segments across its banks); use the
// measured single-System baseline for that comparison.
//
// A zero critical path makes the ratio undefined; an all-zero batch
// reports 1 (no work, no gain) and a zero path with nonzero busy time
// reports 0, the same convention as ctrl.BatchStats.Speedup.
func (s BatchStats) Speedup() float64 {
	if s.CriticalPathNs == 0 {
		if s.BusyNs == 0 {
			return 1
		}
		return 0
	}
	return s.BusyNs / s.CriticalPathNs
}

// UtilizationSkew returns the utilization spread max−min over
// channels: 0 means a perfectly balanced shard, values near 1 mean
// some channels idled while the slowest bounded the batch.
func (s BatchStats) UtilizationSkew() float64 { return Skew(s.ChannelUtilization) }

// Skew is the max−min spread of a utilization vector.
func Skew(utilization []float64) float64 {
	if len(utilization) == 0 {
		return 0
	}
	min, max := utilization[0], utilization[0]
	for _, u := range utilization[1:] {
		if u < min {
			min = u
		}
		if u > max {
			max = u
		}
	}
	return max - min
}
