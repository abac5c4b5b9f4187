// Package gpu models the GPU baseline of SIMDRAM's evaluation.
//
// Substitution note (docs/reproduction.md, "GPU baseline"): the paper measures an NVIDIA Titan V.
// Bulk element-wise kernels on a GPU are HBM-bandwidth bound; the model is
// the same roofline as the CPU baseline with Titan V specifications.
package gpu

import (
	"simdram/internal/baseline/cpu"
	"simdram/internal/ops"
)

// Config describes the modeled GPU.
type Config struct {
	Name string

	CudaCores int
	FreqGHz   float64

	MemBWGBs float64

	PackageWatts float64
	HBMPJPerBit  float64
}

// TitanV returns the paper-testbed-like configuration. Bandwidth is the
// sustained streaming figure (≈85% of the 652.8 GB/s peak); power is the
// package draw during bandwidth-bound kernels (below the 250 W TDP).
func TitanV() Config {
	return Config{
		Name:         "GPU (Titan V, HBM2)",
		CudaCores:    5120,
		FreqGHz:      1.2,
		MemBWGBs:     560,
		PackageWatts: 100, // incremental draw during bandwidth-bound kernels
		HBMPJPerBit:  7,   // HBM2 access energy per bit
	}
}

// Throughput returns element operations per second.
func (c Config) Throughput(d ops.Def, width, n int) float64 {
	compute := float64(c.CudaCores) * c.FreqGHz * 1e9
	switch d.Code {
	case ops.OpMul:
		compute /= 2
	case ops.OpDiv:
		compute /= 8
	}
	bw := c.MemBWGBs * 1e9 / cpu.BytesPerElement(d, width, n)
	if bw < compute {
		return bw
	}
	return compute
}

// EnergyPJPerOp returns energy per element operation in picojoules:
// package power divided by throughput, plus HBM transfer energy.
func (c Config) EnergyPJPerOp(d ops.Def, width, n int) float64 {
	bits := cpu.BytesPerElement(d, width, n) * 8
	packagePJ := c.PackageWatts * 1e12 / c.Throughput(d, width, n)
	return packagePJ + bits*c.HBMPJPerBit
}

// OpsPerJoule returns the energy-efficiency metric.
func (c Config) OpsPerJoule(d ops.Def, width, n int) float64 {
	return 1e12 / c.EnergyPJPerOp(d, width, n)
}
