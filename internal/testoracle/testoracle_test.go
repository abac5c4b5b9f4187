package testoracle

import (
	"testing"

	"simdram/internal/dram"
)

// TestCommandsChargeEnergy pins that a command issued alone charges its
// energy whether or not a hook observes it: without a hook the kernel
// charges a plan's per-class op counts, so a one-op plan must carry
// them.
func TestCommandsChargeEnergy(t *testing.T) {
	cfg := dram.TestConfig()
	plain, hooked := dram.NewSubarray(&cfg), dram.NewSubarray(&cfg)
	hooked.OnCommand = func(dram.Command) {}
	rm := cfg.RowMap()
	t0, t1, t2 := int(rm.T), int(rm.T)+1, int(rm.T)+2
	for _, sa := range []*dram.Subarray{plain, hooked} {
		AAP(sa, 0, 1)
		AAP(sa, 2, t0, t1, t2)
		AP(sa, t0, t1, t2)
		MajCopy(sa, t0, t1, t2, 5)
	}
	if plain.Stats.EnergyPJ <= 0 || plain.Stats != hooked.Stats {
		t.Fatalf("unhooked stats %+v, hooked %+v", plain.Stats, hooked.Stats)
	}
}
