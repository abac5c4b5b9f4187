// Package dram models the DRAM substrate SIMDRAM computes in: banks of
// subarrays whose rows can be activated, copied row-to-row (RowClone /
// AAP), and activated three-at-a-time (triple-row activation, TRA) to
// compute a bitwise majority in the sense amplifiers, following Ambit
// (Seshadri et al., MICRO 2017) as extended by SIMDRAM.
//
// The model is functional (bit-exact row contents) plus analytical
// (per-command latency and energy). Paper-scale performance numbers never
// require materializing paper-scale arrays: command counts from a real
// execution on a small device scale analytically to any geometry.
package dram

import "fmt"

// Timing holds DRAM timing parameters in nanoseconds.
//
// Defaults follow DDR4-2400 (as used in SIMDRAM's evaluation):
// tRCD = 14.16 ns, tRAS = 32 ns, tRP = 14.16 ns.
type Timing struct {
	TRCD  float64 // ACTIVATE to column command
	TRAS  float64 // ACTIVATE to PRECHARGE
	TRP   float64 // PRECHARGE to next ACTIVATE
	TCK   float64 // bus clock period
	TREFI float64 // average refresh command interval
	TRFC  float64 // refresh cycle time (bank unavailable)
}

// DDR4_2400 returns DDR4-2400 timing (tRFC for an 8 Gb die).
func DDR4_2400() Timing {
	return Timing{TRCD: 14.16, TRAS: 32.0, TRP: 14.16, TCK: 0.833, TREFI: 7800, TRFC: 350}
}

// RefreshFactor returns the throughput tax of mandatory refresh: every
// tREFI the banks stall for tRFC, stretching sustained latency by
// tREFI/(tREFI−tRFC) ≈ 4.7% on DDR4. In-DRAM compute pays it like any
// other DRAM traffic; the analytical performance model applies it to
// sustained execution.
func (t Timing) RefreshFactor() float64 {
	if t.TREFI <= t.TRFC || t.TREFI == 0 {
		return 1
	}
	return t.TREFI / (t.TREFI - t.TRFC)
}

// AAPLatency returns the latency of one AAP (ACTIVATE-ACTIVATE-PRECHARGE)
// command: back-to-back activations of source and destination rows
// followed by a precharge, ≈ 2·tRAS + tRP (Ambit §5; ~80 ns on DDR4-2400).
func (t Timing) AAPLatency() float64 { return 2*t.TRAS + t.TRP }

// APLatency returns the latency of one AP (ACTIVATE-PRECHARGE) command —
// a triple-row activation computing MAJ — ≈ tRAS + tRP (~46 ns).
func (t Timing) APLatency() float64 { return t.TRAS + t.TRP }

// CommandsNs returns the latency of nAAP AAPs and nAP APs issued back
// to back on one subarray: the single timing formula every μProgram,
// template and per-op cost is priced by.
func (t Timing) CommandsNs(nAAP, nAP int) float64 {
	return float64(nAAP)*t.AAPLatency() + float64(nAP)*t.APLatency()
}

// RowAccessLatency returns the latency of a normal host row access
// (ACTIVATE + column access + PRECHARGE) used by the store/load paths.
func (t Timing) RowAccessLatency() float64 { return t.TRCD + t.TRAS + t.TRP }

// Energy holds per-command energy parameters in picojoules.
//
// Derived from DDR4-2400 x8 IDD values (IDD0 ≈ 55 mA at VDD = 1.2 V over
// tRC ≈ 46 ns gives ≈ 3 nJ per single-row activate+precharge cycle per
// chip; a 64-bit rank is 8 chips). The absolute scale matters less than
// consistency: SIMDRAM, Ambit, and the store/load paths all use the same
// constants, so ratios — which is what the paper's figures report — are
// meaningful.
type Energy struct {
	ActPJ    float64 // one-row ACTIVATE + restore, full 8 KB row, per rank
	PrePJ    float64 // PRECHARGE
	TRAActPJ float64 // triple-row ACTIVATE (three rows share bitlines; ≈1.5× single)
	WrPJ     float64 // host write of one row over the channel (I/O + access)
	RdPJ     float64 // host read of one row over the channel
}

// DDR4Energy returns the default energy model.
func DDR4Energy() Energy {
	return Energy{
		ActPJ:    2400, // 8 chips × ~0.3 nJ array energy per activate
		PrePJ:    600,
		TRAActPJ: 3600,  // charge-sharing across 3 rows, ~1.5× a single ACT
		WrPJ:     12000, // 8 KB over the channel at ~1.4 pJ/bit I/O + core
		RdPJ:     12000,
	}
}

// AAPEnergy returns the energy of one AAP: two activations (source and
// destination group) plus one precharge. Multi-row destinations share the
// second activation.
func (e Energy) AAPEnergy(nDst int) float64 {
	second := e.ActPJ
	if nDst > 1 {
		second = e.TRAActPJ
	}
	return e.ActPJ + second + e.PrePJ
}

// APEnergy returns the energy of one AP (triple-row activation).
func (e Energy) APEnergy() float64 { return e.TRAActPJ + e.PrePJ }

// MajCopyEnergy returns the energy of Ambit's fused TRA-then-copy AAP:
// a triple-row activation followed by a destination activation.
func (e Energy) MajCopyEnergy() float64 { return e.TRAActPJ + e.ActPJ + e.PrePJ }

// Config describes a DRAM device geometry and its compute region.
type Config struct {
	RowsPerSubarray  int // total rows including the compute region
	Cols             int // bitlines per subarray = SIMD lanes; multiple of 64
	SubarraysPerBank int
	Banks            int

	// Compute region (Ambit-style B-group, SIMDRAM-extended):
	// NumTRows triple-row-activatable rows grouped in threes,
	// NumDCCPairs dual-contact cell pairs, plus control rows C0 and C1.
	NumTRows    int
	NumDCCPairs int

	Timing Timing
	Energy Energy
}

// PaperConfig returns the geometry SIMDRAM evaluates: 512-row subarrays
// with 8 KB rows (65,536 bitlines), 16 subarrays per bank, 16 banks.
func PaperConfig() Config {
	return Config{
		RowsPerSubarray:  512,
		Cols:             65536,
		SubarraysPerBank: 16,
		Banks:            16,
		NumTRows:         6,
		NumDCCPairs:      2,
		Timing:           DDR4_2400(),
		Energy:           DDR4Energy(),
	}
}

// TestConfig returns a small geometry for functional tests.
func TestConfig() Config {
	c := PaperConfig()
	c.RowsPerSubarray = 128
	c.Cols = 256
	c.SubarraysPerBank = 2
	c.Banks = 2
	return c
}

// WordsPerRow returns the number of 64-bit words in one row.
func (c *Config) WordsPerRow() int { return c.Cols / 64 }

// C0Row returns the all-zeros control row.
func (c *Config) C0Row() int { return c.RowsPerSubarray - 2 }

// C1Row returns the all-ones control row.
func (c *Config) C1Row() int { return c.RowsPerSubarray - 1 }

// ComputeRows returns the number of rows reserved for the compute region:
// T rows, two rows per DCC pair, and the two control rows.
func (c *Config) ComputeRows() int { return c.NumTRows + 2*c.NumDCCPairs + 2 }

// DataRows returns the number of rows available for operands and scratch.
func (c *Config) DataRows() int { return c.RowsPerSubarray - c.ComputeRows() }

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.Cols <= 0 || c.Cols%64 != 0 {
		return fmt.Errorf("dram: Cols must be a positive multiple of 64, have %d", c.Cols)
	}
	if c.NumTRows < 3 || c.NumTRows%3 != 0 {
		return fmt.Errorf("dram: NumTRows must be a positive multiple of 3, have %d", c.NumTRows)
	}
	if c.NumDCCPairs < 1 {
		return fmt.Errorf("dram: need at least one DCC pair, have %d", c.NumDCCPairs)
	}
	if c.DataRows() < 8 {
		return fmt.Errorf("dram: only %d data rows left after the compute region", c.DataRows())
	}
	if c.SubarraysPerBank < 1 || c.Banks < 1 {
		return fmt.Errorf("dram: need at least one subarray and one bank")
	}
	if c.Timing.TRAS <= 0 || c.Timing.TRP <= 0 {
		return fmt.Errorf("dram: timing not initialized")
	}
	return nil
}
