// Package cpu models the CPU baseline of SIMDRAM's evaluation.
//
// Substitution note (docs/reproduction.md, "CPU baseline"): the paper measures a real multi-core
// Intel Skylake machine. Bulk element-wise kernels on such a machine are
// memory-bandwidth bound, so we model performance with a roofline —
// min(SIMD compute rate, memory bandwidth / bytes moved per element) —
// using the published specifications of the paper's testbed. The golden
// functional path (ops.Def.Golden) doubles as this baseline's semantics,
// so "what the CPU would compute" is also the oracle for DRAM execution.
package cpu

import (
	"simdram/internal/ops"
)

// Config describes the modeled CPU.
type Config struct {
	Name string

	Cores        int
	FreqGHz      float64
	SIMDLanes256 int // 256-bit vector ALUs per core

	MemBWGBs float64 // sustained DRAM bandwidth, GB/s

	// Energy model: package power × time dominates streaming kernels
	// (the cores, caches and uncore stay powered while waiting on
	// memory); DRAM transfer energy is added per bit moved.
	PackageWatts float64
	DRAMPJPerBit float64
}

// Skylake returns the paper-testbed-like configuration: a 16-core
// Intel Xeon-class CPU with dual-channel DDR4-2400. Bandwidth is the
// *sustained* streaming figure (≈50% of the 38.4 GB/s peak, which is
// what multi-stream kernels achieve in practice).
func Skylake() Config {
	return Config{
		Name:         "CPU (Skylake, 16 cores, DDR4-2400 x2)",
		Cores:        16,
		FreqGHz:      3.0,
		SIMDLanes256: 2,
		MemBWGBs:     19.2,
		PackageWatts: 48, // dynamic package power attributable to the kernel
		DRAMPJPerBit: 15, // DDR4 access + I/O energy per bit
	}
}

// BytesPerElement returns the bytes that cross the memory bus per element
// for an operation: every source operand is read and the destination is
// written, at the element's byte width.
func BytesPerElement(d ops.Def, width, n int) float64 {
	srcBytes := float64(d.EffArity(n)) * float64((width+7)/8)
	dstBytes := float64((d.DstWidth(width) + 7) / 8)
	return srcBytes + dstBytes
}

// Throughput returns element operations per second for a bulk streaming
// execution of the operation.
func (c Config) Throughput(d ops.Def, width, n int) float64 {
	// Compute bound: lanes per 256-bit vector at this width, all cores.
	lanesPerVec := 256.0 / float64(width)
	compute := float64(c.Cores) * c.FreqGHz * 1e9 * float64(c.SIMDLanes256) * lanesPerVec
	switch d.Code {
	case ops.OpMul:
		compute /= 2 // multiplication halves vector issue rate
	case ops.OpDiv:
		// Integer division is not vectorized: one scalar divide per
		// element at ~6 cycles each.
		compute = float64(c.Cores) * c.FreqGHz * 1e9 / 6
	}
	// Bandwidth bound.
	bw := c.MemBWGBs * 1e9 / BytesPerElement(d, width, n)
	if bw < compute {
		return bw
	}
	return compute
}

// EnergyPJPerOp returns energy per element operation in picojoules:
// package power divided by throughput, plus DRAM transfer energy.
func (c Config) EnergyPJPerOp(d ops.Def, width, n int) float64 {
	bits := BytesPerElement(d, width, n) * 8
	packagePJ := c.PackageWatts * 1e12 / c.Throughput(d, width, n)
	return packagePJ + bits*c.DRAMPJPerBit
}

// OpsPerJoule returns the energy-efficiency metric.
func (c Config) OpsPerJoule(d ops.Def, width, n int) float64 {
	return 1e12 / c.EnergyPJPerOp(d, width, n)
}

// Run computes the operation element-wise on host data — the functional
// CPU baseline (and the oracle for every other execution engine).
func Run(d ops.Def, width int, operands [][]uint64) []uint64 {
	n := len(operands[0])
	out := make([]uint64, n)
	args := make([]uint64, len(operands))
	for i := 0; i < n; i++ {
		for k := range operands {
			args[k] = operands[k][i]
		}
		out[i] = d.Golden(args, width)
	}
	return out
}
