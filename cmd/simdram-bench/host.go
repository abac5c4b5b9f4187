package main

import (
	"fmt"
	"runtime"
	"time"

	"simdram/internal/dram"
	"simdram/internal/ops"
	"simdram/internal/uprog"
)

// hostPerf is the host-side (wall-clock) profile of the bind-once/
// run-many hot path measured on one subarray: how fast the resolved
// executor replays DRAM commands and how many heap allocations one
// μProgram run costs in steady state.
type hostPerf struct {
	NsPerCmd     float64 // resolved-stream wall ns per DRAM command
	AllocsPerRun float64 // heap allocations per resolved run (deterministic, gated)
	Commands     int     // commands per μProgram run
}

// measureHostPerf times the 16-bit addition μProgram — the catalog's
// workhorse — as a resolved stream. Wall-clock numbers vary with the
// runner and are reported for inspection only; AllocsPerRun is exact
// (a runtime malloc counter around a fixed loop) and is the metric the
// CI baseline gates at zero.
func measureHostPerf() (hostPerf, error) {
	cfg := dram.TestConfig()
	d, err := ops.ByName("addition")
	if err != nil {
		return hostPerf{}, err
	}
	s, err := ops.SynthesizeCached(d, 16, 2, ops.VariantSIMDRAM)
	if err != nil {
		return hostPerf{}, err
	}
	p := s.Program
	b := uprog.Binding{
		SrcBase:     []int{0, 16},
		DstBase:     32,
		ScratchBase: cfg.DataRows() - p.NumScratch,
	}
	sa := dram.NewSubarray(&cfg)
	st, err := uprog.Resolve(p, b, cfg)
	if err != nil {
		return hostPerf{}, err
	}

	// Warm up: first runs touch cold caches.
	for i := 0; i < 10; i++ {
		uprog.RunResolved(sa, st)
	}

	const runs = 2000
	start := time.Now()
	for i := 0; i < runs; i++ {
		uprog.RunResolved(sa, st)
	}
	resolvedWall := time.Since(start)

	// Allocation count via the runtime's malloc counter. Background
	// goroutines (GC workers) can allocate concurrently, so take the
	// minimum over a few attempts — the steady-state path itself is
	// deterministic.
	allocs := allocsPerRun(func() { uprog.RunResolved(sa, st) })

	cmds := len(p.Ops)
	return hostPerf{
		NsPerCmd:     float64(resolvedWall.Nanoseconds()) / float64(runs*cmds),
		AllocsPerRun: allocs,
		Commands:     cmds,
	}, nil
}

// allocsPerRun counts heap allocations per call of fn: the minimum
// over three attempts of the Mallocs delta across a 100-call loop.
func allocsPerRun(fn func()) float64 {
	var best float64 = -1
	var before, after runtime.MemStats
	for attempt := 0; attempt < 3; attempt++ {
		const loops = 100
		runtime.ReadMemStats(&before)
		for i := 0; i < loops; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / loops
		if best < 0 || got < best {
			best = got
		}
	}
	return best
}

// reportHostPerf prints the profile and records it under the given
// metric prefix. Only the -graph demo uses the bare "host." prefix, so
// the gated host.allocs_per_run key is the -graph demo's measurement;
// other demos record theirs under their own prefix for inspection.
func reportHostPerf(m metrics, prefix string) error {
	hp, err := measureHostPerf()
	if err != nil {
		return err
	}
	fmt.Printf("  host hot path:      %.1f ns/command resolved, %.0f allocs/run (%d commands)\n",
		hp.NsPerCmd, hp.AllocsPerRun, hp.Commands)
	m[prefix+"ns_per_cmd"] = hp.NsPerCmd
	m[prefix+"allocs_per_run"] = hp.AllocsPerRun
	return nil
}
