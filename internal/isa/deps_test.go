package isa_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"simdram"
	"simdram/internal/batchgen"
	"simdram/internal/isa"
	"simdram/internal/ops"
)

// depsOracle is the original map-based hazard analysis, kept as the
// reference Program.Deps must reproduce exactly: one set per
// instruction, filled from the public Reads/Writes accessors.
func depsOracle(p isa.Program) [][]int {
	deps := make([][]int, len(p))
	lastWriter := map[uint16]int{}     // handle → last instruction that wrote it
	readersSince := map[uint16][]int{} // handle → readers since its last write
	for i, in := range p {
		set := map[int]bool{}
		reads, writes := in.Reads(), in.Writes()
		for _, h := range reads {
			if w, ok := lastWriter[h]; ok {
				set[w] = true // RAW
			}
		}
		for _, h := range writes {
			if w, ok := lastWriter[h]; ok {
				set[w] = true // WAW
			}
			for _, r := range readersSince[h] {
				set[r] = true // WAR
			}
		}
		for _, h := range reads {
			readersSince[h] = append(readersSince[h], i)
		}
		for _, h := range writes {
			lastWriter[h] = i
			readersSince[h] = nil
		}
		delete(set, i)
		if len(set) > 0 {
			out := make([]int, 0, len(set))
			for d := range set {
				out = append(out, d)
			}
			sort.Ints(out)
			deps[i] = out
		}
	}
	return deps
}

// checkDeps compares Program.Deps with the oracle on one program.
func checkDeps(t *testing.T, name string, p isa.Program) {
	t.Helper()
	got, want := p.Deps(), depsOracle(p)
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: instruction %d (%s): Deps %v, oracle %v", name, i, p[i], got[i], want[i])
			}
		}
		t.Fatalf("%s: Deps %v, oracle %v", name, got, want)
	}
}

// randomProgram draws a program over a handful of handles, so sources
// and destinations collide often: handle reuse, self-read/write
// instructions (a destination that is also a source), trsp_init,
// fixed-arity operations of 1-3 sources, N-ary reductions with more
// operands than the three encoded slots, and an opcode outside the
// catalog (whose reads are all three slots).
func randomProgram(rng *rand.Rand, n int) isa.Program {
	defs := []ops.Code{ops.OpAdd, ops.OpNot, ops.OpIfElse, ops.OpAndRed, ops.OpXorRed}
	handles := 2 + rng.Intn(6)
	h := func() uint16 { return uint16(1 + rng.Intn(handles)) }
	p := make(isa.Program, n)
	for i := range p {
		in := isa.Instruction{Dst: h(), Src: [3]uint16{h(), h(), h()}, Size: 64, Width: 8}
		switch r := rng.Intn(10); {
		case r == 0:
			in = isa.Instruction{Op: isa.OpTrspInit, Src: [3]uint16{h()}, Size: 64, Width: 8}
		case r == 1:
			in.Op = isa.OpBase + 200
		default:
			in.Op = isa.FromOp(defs[rng.Intn(len(defs))])
			in.N = uint8(2 + rng.Intn(4))
		}
		if rng.Intn(4) == 0 {
			in.Src[rng.Intn(3)] = in.Dst
		}
		p[i] = in
	}
	return p
}

// TestDepsMatchesOracle pins Program.Deps to the map-based oracle on
// the batchgen programs the benchmarks run, on a compiled graph
// program (with its reused temporary slots), and on seeded random
// programs.
func TestDepsMatchesOracle(t *testing.T) {
	cfg := simdram.DefaultConfig()
	cfg.DRAM.Banks, cfg.DRAM.SubarraysPerBank = 2, 2
	sys, err := simdram.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for seed := int64(1); seed <= 3; seed++ {
		prog, err := batchgen.Program(sys, seed)
		if err != nil {
			t.Fatal(err)
		}
		checkDeps(t, "batchgen.Program", prog)
	}
	exprs, err := batchgen.GraphExprs(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sys.Compile(exprs...)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Free()
	checkDeps(t, "batchgen.GraphExprs", cp.Program())

	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 2000; trial++ {
		checkDeps(t, "random", randomProgram(rng, rng.Intn(40)))
	}
}

// FuzzDeps decodes a program from arbitrary bytes (16 bytes per
// instruction, the wire encoding; undecodable words are skipped) and
// checks Program.Deps against the oracle.
func FuzzDeps(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		var data []byte
		for _, in := range randomProgram(rng, 12) {
			data = appendEncoded(data, in.Encode())
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p isa.Program
		for len(data) >= 16 {
			var e isa.Encoded
			for k := range e {
				for b := 0; b < 8; b++ {
					e[k] = e[k]<<8 | uint64(data[8*k+b])
				}
			}
			data = data[16:]
			if in, err := isa.Decode(e); err == nil {
				p = append(p, in)
			}
		}
		checkDeps(t, "fuzz", p)
	})
}

// appendEncoded appends the big-endian bytes of an encoded instruction.
func appendEncoded(data []byte, e isa.Encoded) []byte {
	for _, w := range e {
		for b := 7; b >= 0; b-- {
			data = append(data, byte(w>>(8*b)))
		}
	}
	return data
}

// BenchmarkDeps times hazard analysis of a compiled graph program
// (batchgen.GraphExprs: 24 instructions over reused temporary slots).
func BenchmarkDeps(b *testing.B) {
	cfg := simdram.DefaultConfig()
	cfg.DRAM.Banks, cfg.DRAM.SubarraysPerBank = 2, 2
	sys, err := simdram.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	exprs, err := batchgen.GraphExprs(sys, 1)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := sys.Compile(exprs...)
	if err != nil {
		b.Fatal(err)
	}
	defer cp.Free()
	prog := cp.Program()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Deps()
	}
}
