package simdram_test

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"simdram"
	"simdram/internal/baseline/cpu"
	"simdram/internal/isa"
	"simdram/internal/ops"
)

func bbop(code ops.Code, dst, a, b *simdram.Vector) isa.Instruction {
	return isa.Instruction{
		Op:    isa.FromOp(code),
		Dst:   dst.Handle(),
		Src:   [3]uint16{a.Handle(), b.Handle()},
		Size:  uint32(dst.Len()),
		Width: uint8(a.Width()),
	}
}

func storeRandom(t *testing.T, rng *rand.Rand, v *simdram.Vector) []uint64 {
	t.Helper()
	data := make([]uint64, v.Len())
	for i := range data {
		data[i] = uint64(rng.Uint32()) & ((1 << v.Width()) - 1)
	}
	if err := v.Store(data); err != nil {
		t.Fatal(err)
	}
	return data
}

func mustLoad(t *testing.T, v *simdram.Vector) []uint64 {
	t.Helper()
	got, err := v.Load()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestExecBatchMatchesSerial runs the same hazard-rich program through
// ExecBatch on one system and through a serial Exec loop on an
// identically-seeded second system, and requires identical results.
func TestExecBatchMatchesSerial(t *testing.T) {
	build := func() (*simdram.System, isa.Program, []*simdram.Vector) {
		sys, err := simdram.New(simdram.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		n, w := 1024, 16
		rng := rand.New(rand.NewSource(42))
		alloc := func() *simdram.Vector {
			v, err := sys.AllocVector(n, w)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		a, b := alloc(), alloc()
		t1, t2, t3, t4 := alloc(), alloc(), alloc(), alloc()
		storeRandom(t, rng, a)
		storeRandom(t, rng, b)
		prog := isa.Program{
			bbop(ops.OpAdd, t1, a, b),   // t1 = a+b
			bbop(ops.OpSub, t2, a, b),   // t2 = a-b        (independent of t1)
			bbop(ops.OpAdd, t3, t1, t2), // t3 = t1+t2     (RAW on both)
			bbop(ops.OpSub, t4, t3, a),  // t4 = t3-a      (RAW chain)
			bbop(ops.OpAdd, t1, t4, b),  // t1 = t4+b      (WAW/WAR on t1)
		}
		return sys, prog, []*simdram.Vector{t1, t2, t3, t4}
	}

	sysBatch, prog, outsBatch := build()
	defer sysBatch.Close()
	st, err := sysBatch.ExecBatch(prog)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != int64(len(prog)) {
		t.Errorf("Instructions = %d, want %d", st.Instructions, len(prog))
	}
	if st.CriticalPathNs <= 0 || st.BusyNs < st.CriticalPathNs {
		t.Errorf("latency accounting broken: busy %f, critical path %f", st.BusyNs, st.CriticalPathNs)
	}

	sysSerial, prog2, outsSerial := build()
	defer sysSerial.Close()
	var serial simdram.Stats
	for i, in := range prog2 {
		st, err := sysSerial.Exec(in)
		if err != nil {
			t.Fatalf("serial instruction %d: %v", i, err)
		}
		serial.LatencyNs += st.LatencyNs
		serial.EnergyPJ += st.EnergyPJ
		serial.Commands += st.Commands
	}
	if math.Abs(serial.LatencyNs-st.BusyNs) > 1e-6*serial.LatencyNs {
		t.Errorf("batch BusyNs %f != serial Exec sum %f", st.BusyNs, serial.LatencyNs)
	}
	// Energy is a sum of integral per-command picojoules, so both paths
	// must agree exactly, as must the command counts.
	if serial.EnergyPJ != st.EnergyPJ || serial.Commands != st.Commands {
		t.Errorf("serial Exec sum %v pJ / %d commands, batch %v pJ / %d commands",
			serial.EnergyPJ, serial.Commands, st.EnergyPJ, st.Commands)
	}
	for i := range outsBatch {
		got, want := mustLoad(t, outsBatch[i]), mustLoad(t, outsSerial[i])
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("output %d lane %d: batch %d, serial %d", i, j, got[j], want[j])
			}
		}
	}
}

// TestExecBatchOverlapTiming places independent instruction groups in
// disjoint banks (via AllocVectorAt) and checks they overlap in the
// timing model, then forces them into one bank and checks they
// serialize.
func TestExecBatchOverlapTiming(t *testing.T) {
	cfg := simdram.DefaultConfig()
	banks := cfg.DRAM.Banks
	if banks < 4 {
		t.Fatalf("default config has %d banks, want >= 4", banks)
	}
	n, w := cfg.DRAM.Cols, 8 // one segment per vector

	run := func(bankOf func(g int) int) simdram.BatchStats {
		sys, err := simdram.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		rng := rand.New(rand.NewSource(3))
		var prog isa.Program
		for g := 0; g < banks; g++ {
			bank := bankOf(g)
			sub := g % cfg.DRAM.SubarraysPerBank
			alloc := func() *simdram.Vector {
				v, err := sys.AllocVectorAt(n, w, bank, sub)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			a, b, dst := alloc(), alloc(), alloc()
			storeRandom(t, rng, a)
			storeRandom(t, rng, b)
			prog = append(prog, bbop(ops.OpAdd, dst, a, b))
		}
		st, err := sys.ExecBatch(prog)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	spread := run(func(g int) int { return g })
	if got := spread.Speedup(); got < float64(banks)-0.01 {
		t.Errorf("bank-disjoint batch speedup = %f, want ~%d (instructions must overlap)", got, banks)
	}
	packed := run(func(g int) int { return 0 })
	if math.Abs(packed.CriticalPathNs-packed.BusyNs) > 1e-9*packed.BusyNs {
		t.Errorf("single-bank batch must serialize: critical path %f, busy %f",
			packed.CriticalPathNs, packed.BusyNs)
	}
	if math.Abs(packed.BusyNs-spread.BusyNs) > 1e-9*packed.BusyNs {
		t.Errorf("serial-equivalent time must not depend on placement: %f vs %f",
			packed.BusyNs, spread.BusyNs)
	}
}

// TestExecBatchConcurrentStress issues many independent instructions
// across every bank — mainly valuable under `go test -race`, where it
// exercises concurrent dispatch through the shared worker pool.
func TestExecBatchConcurrentStress(t *testing.T) {
	cfg := simdram.DefaultConfig()
	sys, err := simdram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(11))
	n, w := cfg.DRAM.Cols, 8
	type group struct {
		dst  *simdram.Vector
		want []uint64
	}
	var groups []group
	var prog isa.Program
	for bank := 0; bank < cfg.DRAM.Banks; bank++ {
		for sub := 0; sub < cfg.DRAM.SubarraysPerBank; sub++ {
			alloc := func() *simdram.Vector {
				v, err := sys.AllocVectorAt(n, w, bank, sub)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			a, b, dst := alloc(), alloc(), alloc()
			av := storeRandom(t, rng, a)
			bv := storeRandom(t, rng, b)
			want := make([]uint64, n)
			for i := range want {
				want[i] = (av[i] + bv[i]) & 0xFF
			}
			groups = append(groups, group{dst: dst, want: want})
			prog = append(prog, bbop(ops.OpAdd, dst, a, b))
		}
	}
	if _, err := sys.ExecBatch(prog); err != nil {
		t.Fatal(err)
	}
	for gi, g := range groups {
		got := mustLoad(t, g.dst)
		for i := range g.want {
			if got[i] != g.want[i] {
				t.Fatalf("group %d lane %d: got %d, want %d", gi, i, got[i], g.want[i])
			}
		}
	}
}

func TestExecBatchErrors(t *testing.T) {
	sys, err := simdram.New(simdram.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	a, _ := sys.AllocVector(64, 8)
	b, _ := sys.AllocVector(64, 8)
	dst, _ := sys.AllocVector(64, 8)
	if _, err := sys.ExecBatch(nil); err == nil {
		t.Error("empty program must be rejected")
	}
	bad := bbop(ops.OpAdd, dst, a, b)
	bad.Src[1] = 9999 // unknown handle
	_, err = sys.ExecBatch(isa.Program{bbop(ops.OpAdd, dst, a, b), bad})
	if err == nil || !strings.Contains(err.Error(), "instruction 1") {
		t.Errorf("error must name the failing instruction, got: %v", err)
	}
}

// TestExecBatchTrspInit checks trsp_init instructions validate their
// object and otherwise fall out of the batch.
func TestExecBatchTrspInit(t *testing.T) {
	sys, err := simdram.New(simdram.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	a, _ := sys.AllocVector(64, 8)
	trsp := isa.Instruction{Op: isa.OpTrspInit, Src: [3]uint16{a.Handle()}, Size: 64, Width: 8}
	st, err := sys.ExecBatch(isa.Program{trsp})
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 0 || st.CriticalPathNs != 0 {
		t.Errorf("trsp_init-only batch must be free, got %+v", st)
	}
	trsp.Src[0] = 9999
	if _, err := sys.ExecBatch(isa.Program{trsp}); err == nil {
		t.Error("trsp_init of unknown object must fail")
	}
}

// TestExecBatchConcurrentCallers pins System.ExecBatch's concurrency
// contract: two goroutines run hazard-chained programs over disjoint
// vectors of one System at the same time. The calls serialize in the
// control unit, so under -race nothing races, every result matches the
// CPU golden model, and the system's command count is the sum of every
// call's.
func TestExecBatchConcurrentCallers(t *testing.T) {
	sys, err := simdram.New(simdram.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	add, err := ops.ByCode(ops.OpAdd)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := ops.ByCode(ops.OpSub)
	if err != nil {
		t.Fatal(err)
	}
	const callers, rounds, n, w = 2, 8, 1024, 8
	type caller struct {
		prog isa.Program
		outs []*simdram.Vector
		want [][]uint64
	}
	cs := make([]caller, callers)
	for c := range cs {
		rng := rand.New(rand.NewSource(int64(60 + c)))
		alloc := func() *simdram.Vector {
			v, err := sys.AllocVector(n, w)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		a, b := alloc(), alloc()
		t1, t2, t3, t4 := alloc(), alloc(), alloc(), alloc()
		av, bv := storeRandom(t, rng, a), storeRandom(t, rng, b)
		g1 := cpu.Run(add, w, [][]uint64{av, bv})
		g2 := cpu.Run(sub, w, [][]uint64{av, bv})
		g3 := cpu.Run(add, w, [][]uint64{g1, g2})
		g4 := cpu.Run(sub, w, [][]uint64{g3, av})
		cs[c] = caller{
			prog: isa.Program{
				bbop(ops.OpAdd, t1, a, b),
				bbop(ops.OpSub, t2, a, b),
				bbop(ops.OpAdd, t3, t1, t2),
				bbop(ops.OpSub, t4, t3, a),
				bbop(ops.OpAdd, t1, t4, b),
			},
			outs: []*simdram.Vector{t1, t2, t3, t4},
			want: [][]uint64{cpu.Run(add, w, [][]uint64{g4, bv}), g2, g3, g4},
		}
	}
	before := sys.SystemStats().Commands
	commands := make([]int64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				st, err := sys.ExecBatch(cs[c].prog)
				if err != nil {
					errs[c] = err
					return
				}
				commands[c] += st.Commands
			}
		}()
	}
	wg.Wait()
	for c := range cs {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		for i, v := range cs[c].outs {
			if got := mustLoad(t, v); !slices.Equal(got, cs[c].want[i]) {
				t.Errorf("caller %d output %d differs from the CPU golden model", c, i)
			}
		}
	}
	if got, want := sys.SystemStats().Commands-before, commands[0]+commands[1]; got != want {
		t.Errorf("system counted %d commands, the calls returned %d", got, want)
	}
}
