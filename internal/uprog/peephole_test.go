package uprog_test

import (
	"math/rand"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/testoracle"
	"simdram/internal/uprog"
)

func TestDeadScratchWriteRemoved(t *testing.T) {
	p := &uprog.Program{Name: "x", Width: 2, NumSrc: 1, DstWidth: 1, NumScratch: 2}
	p.Ops = []uprog.MicroOp{
		// Dead spill: written, never read.
		{Kind: uprog.OpAAP, Src: uprog.Ref{Space: uprog.SpaceSrc, Op: 0, Idx: 0}, Dsts: []uprog.Ref{{Space: uprog.SpaceScratch, Idx: 0}}},
		// Live spill: read below.
		{Kind: uprog.OpAAP, Src: uprog.Ref{Space: uprog.SpaceSrc, Op: 0, Idx: 1}, Dsts: []uprog.Ref{{Space: uprog.SpaceScratch, Idx: 1}}},
		{Kind: uprog.OpAAP, Src: uprog.Ref{Space: uprog.SpaceScratch, Idx: 1}, Dsts: []uprog.Ref{{Space: uprog.SpaceDst, Idx: 0}}},
	}
	removed := uprog.OptimizeProgram(p)
	if removed != 1 {
		t.Fatalf("removed %d ops, want 1", removed)
	}
	if len(p.Ops) != 2 {
		t.Fatalf("program has %d ops, want 2", len(p.Ops))
	}
	if p.Ops[0].Dsts[0].Idx != 1 {
		t.Error("wrong op removed")
	}
}

func TestDeadChainRemovedTransitively(t *testing.T) {
	// scratch0 feeds scratch1 which feeds nothing: both must go.
	p := &uprog.Program{Name: "x", Width: 1, NumSrc: 1, DstWidth: 1, NumScratch: 2}
	p.Ops = []uprog.MicroOp{
		{Kind: uprog.OpAAP, Src: uprog.Ref{Space: uprog.SpaceSrc, Op: 0, Idx: 0}, Dsts: []uprog.Ref{{Space: uprog.SpaceScratch, Idx: 0}}},
		{Kind: uprog.OpAAP, Src: uprog.Ref{Space: uprog.SpaceScratch, Idx: 0}, Dsts: []uprog.Ref{{Space: uprog.SpaceScratch, Idx: 1}}},
		{Kind: uprog.OpAAP, Src: uprog.Ref{Space: uprog.SpaceSrc, Op: 0, Idx: 0}, Dsts: []uprog.Ref{{Space: uprog.SpaceDst, Idx: 0}}},
	}
	if removed := uprog.OptimizeProgram(p); removed != 2 {
		t.Fatalf("removed %d ops, want 2 (transitive)", removed)
	}
}

func TestOverwrittenSpillIsDead(t *testing.T) {
	// scratch0 written, overwritten without a read, then read: the first
	// write is dead, the second is live.
	p := &uprog.Program{Name: "x", Width: 2, NumSrc: 1, DstWidth: 1, NumScratch: 1}
	p.Ops = []uprog.MicroOp{
		{Kind: uprog.OpAAP, Src: uprog.Ref{Space: uprog.SpaceSrc, Op: 0, Idx: 0}, Dsts: []uprog.Ref{{Space: uprog.SpaceScratch, Idx: 0}}},
		{Kind: uprog.OpAAP, Src: uprog.Ref{Space: uprog.SpaceSrc, Op: 0, Idx: 1}, Dsts: []uprog.Ref{{Space: uprog.SpaceScratch, Idx: 0}}},
		{Kind: uprog.OpAAP, Src: uprog.Ref{Space: uprog.SpaceScratch, Idx: 0}, Dsts: []uprog.Ref{{Space: uprog.SpaceDst, Idx: 0}}},
	}
	if removed := uprog.OptimizeProgram(p); removed != 1 {
		t.Fatalf("removed %d ops, want 1", removed)
	}
	if p.Ops[0].Src.Idx != 1 {
		t.Error("kept the wrong write")
	}
}

func TestMajCopyWithDeadScratchBecomesAP(t *testing.T) {
	p := &uprog.Program{Name: "x", Width: 1, NumSrc: 1, DstWidth: 1, NumScratch: 1}
	p.Ops = []uprog.MicroOp{
		{Kind: uprog.OpMajCopy, T: [3]int{0, 1, 2}, Dsts: []uprog.Ref{{Space: uprog.SpaceScratch, Idx: 0}}},
		{Kind: uprog.OpAAP, Src: uprog.Ref{Space: uprog.SpaceT, Idx: 0}, Dsts: []uprog.Ref{{Space: uprog.SpaceDst, Idx: 0}}},
	}
	uprog.OptimizeProgram(p)
	if p.Ops[0].Kind != uprog.OpAP {
		t.Errorf("MajCopy with dead destination should fall back to AP, got %v", p.Ops[0].Kind)
	}
}

// TestPeepholePreservesSemantics runs an adder program with and without
// the peephole on identical data.
func TestPeepholePreservesSemantics(t *testing.T) {
	m := buildAdderMIG(t, 12)
	in, out := stdRefs(12, 12)
	raw, err := uprog.Generate(m, in, out, uprog.DefaultCodegen("add12"))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := uprog.Generate(m, in, out, uprog.DefaultCodegen("add12"))
	if err != nil {
		t.Fatal(err)
	}
	uprog.OptimizeProgram(opt)
	if len(opt.Ops) > len(raw.Ops) {
		t.Fatal("peephole grew the program")
	}
	rng := rand.New(rand.NewSource(3))
	av := make([]uint64, 100)
	bv := make([]uint64, 100)
	for i := range av {
		av[i] = rng.Uint64() & 0xFFF
		bv[i] = rng.Uint64() & 0xFFF
	}
	g1 := runOnSubarray(t, raw, 12, av, bv)
	g2 := runOnSubarray(t, opt, 12, av, bv)
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("lane %d: raw %d optimized %d", i, g1[i], g2[i])
		}
	}
	if err := testoracle.CheckProgram(opt, dram.TestConfig()); err != nil {
		t.Fatal(err)
	}
}
