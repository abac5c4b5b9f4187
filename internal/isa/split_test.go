package isa

import (
	"strings"
	"testing"

	"simdram/internal/ops"
)

// shardOf is a Rewrite shard lookup over two maps: an object's handle
// on the shard (0 when absent) and its element count there, known when
// sizes has it.
func shardOf(handles map[uint16]uint16, sizes map[uint16]uint32) func(uint16) (uint16, uint32, bool) {
	return func(h uint16) (uint16, uint32, bool) {
		size, ok := sizes[h]
		return handles[h], size, ok
	}
}

func TestRewriteMapsHandlesAndSizes(t *testing.T) {
	prog := Program{
		{Op: OpTrspInit, Src: [3]uint16{1}, Size: 100, Width: 8},
		{Op: FromOp(ops.OpAdd), Dst: 3, Src: [3]uint16{1, 2}, Size: 100, Width: 8},
	}
	handles := map[uint16]uint16{1: 11, 2: 12, 3: 13}
	sizes := map[uint16]uint32{1: 40, 2: 40, 3: 40}
	sub, err := prog.Rewrite(shardOf(handles, sizes))
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 {
		t.Fatalf("rewrote %d instructions, want 2", len(sub))
	}
	if sub[0].Src[0] != 11 || sub[0].Size != 40 {
		t.Errorf("trsp_init rewrote to %+v", sub[0])
	}
	if sub[1].Dst != 13 || sub[1].Src[0] != 11 || sub[1].Src[1] != 12 || sub[1].Size != 40 {
		t.Errorf("operation rewrote to %+v", sub[1])
	}
	// The original program is untouched.
	if prog[1].Dst != 3 || prog[1].Size != 100 {
		t.Errorf("rewrite mutated the original program: %+v", prog[1])
	}
}

func TestRewriteDropsZeroSizeInstructions(t *testing.T) {
	prog := Program{
		{Op: FromOp(ops.OpAdd), Dst: 3, Src: [3]uint16{1, 2}, Size: 100, Width: 8},
		{Op: FromOp(ops.OpAdd), Dst: 6, Src: [3]uint16{4, 5}, Size: 100, Width: 8},
	}
	// Objects 4-6 have no elements on this shard: their instruction
	// vanishes and their handles need no mapping.
	handles := map[uint16]uint16{1: 11, 2: 12, 3: 13}
	sizes := map[uint16]uint32{3: 25, 6: 0}
	sub, err := prog.Rewrite(shardOf(handles, sizes))
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 1 || sub[0].Dst != 13 {
		t.Fatalf("shard program = %v, want only the first instruction", sub)
	}
}

func TestRewriteMissingMappings(t *testing.T) {
	prog := Program{{Op: FromOp(ops.OpAdd), Dst: 3, Src: [3]uint16{1, 2}, Size: 100, Width: 8}}
	if _, err := prog.Rewrite(shardOf(map[uint16]uint16{1: 11, 2: 12, 3: 13}, map[uint16]uint32{})); err == nil || !strings.Contains(err.Error(), "no shard size") {
		t.Errorf("missing size must fail, got: %v", err)
	}
	if _, err := prog.Rewrite(shardOf(map[uint16]uint16{3: 13}, map[uint16]uint32{3: 10})); err == nil || !strings.Contains(err.Error(), "no shard handle") {
		t.Errorf("missing source handle must fail, got: %v", err)
	}
	if _, err := prog.Rewrite(shardOf(map[uint16]uint16{1: 11, 2: 12}, map[uint16]uint32{3: 10})); err == nil || !strings.Contains(err.Error(), "no shard handle") {
		t.Errorf("missing destination handle must fail, got: %v", err)
	}
}
