package isa

import (
	"reflect"
	"testing"

	"simdram/internal/ops"
)

// Edge cases for Program.Deps and Program.Rewrite: empty programs,
// single-instruction programs, and programs of repeated identical
// instructions — the shapes shard splitting and graph lowering produce
// at their boundaries.

func TestDepsEdgeCases(t *testing.T) {
	if got := (Program{}).Deps(); len(got) != 0 {
		t.Errorf("empty program Deps = %v, want empty", got)
	}
	if got := (Program{add(3, 1, 2)}).Deps(); !reflect.DeepEqual(got, [][]int{nil}) {
		t.Errorf("single-instruction Deps = %v, want [nil]", got)
	}
	// An instruction repeated verbatim hazards against itself every
	// time: WAW on the destination and WAR against its own reads never
	// let two copies reorder, but each copy depends only on its
	// immediate predecessor (the write clears the reader list and
	// supersedes the previous write).
	p := Program{add(3, 1, 2), add(3, 1, 2), add(3, 1, 2)}
	want := [][]int{nil, {0}, {1}}
	if got := p.Deps(); !reflect.DeepEqual(got, want) {
		t.Errorf("repeated-instruction Deps = %v, want %v", got, want)
	}
	// A self-referential repeat (destination also read) behaves the
	// same: RAW and WAW collapse onto the single predecessor edge.
	q := Program{add(3, 3, 2), add(3, 3, 2)}
	if got := q.Deps(); !reflect.DeepEqual(got, [][]int{nil, {0}}) {
		t.Errorf("self-referential repeat Deps = %v, want [nil [0]]", got)
	}
}

func TestRewriteEdgeCases(t *testing.T) {
	handles := map[uint16]uint16{1: 11, 2: 12, 3: 13}
	sizes := map[uint16]uint32{1: 4, 2: 4, 3: 4}

	// Empty program: trivially rewrites to an empty (non-nil) program.
	out, err := (Program{}).Rewrite(shardOf(handles, sizes))
	if err != nil {
		t.Fatalf("empty program: %v", err)
	}
	if len(out) != 0 || out == nil {
		t.Errorf("empty program rewrote to %v, want empty non-nil program", out)
	}

	// Single instruction: handles map, size replaced.
	out, err = (Program{add(3, 1, 2)}).Rewrite(shardOf(handles, sizes))
	if err != nil {
		t.Fatal(err)
	}
	want := Program{{Op: FromOp(ops.OpAdd), Dst: 13, Src: [3]uint16{11, 12}, Size: 4, Width: 8}}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("single instruction rewrote to %v, want %v", out, want)
	}

	// Zero shard size drops the instruction.
	out, err = (Program{add(3, 1, 2)}).Rewrite(shardOf(handles, map[uint16]uint32{1: 0, 2: 0, 3: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("zero-size shard kept %v, want instruction dropped", out)
	}

	// Repeated identical instructions rewrite independently — three
	// copies in, three identical mapped copies out, order preserved.
	p := Program{add(3, 1, 2), add(3, 1, 2), add(3, 1, 2)}
	out, err = p.Rewrite(shardOf(handles, sizes))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("repeated instructions rewrote to %d instructions, want 3", len(out))
	}
	for i, in := range out {
		if !reflect.DeepEqual(in, want[0]) {
			t.Errorf("copy %d rewrote to %v, want %v", i, in, want[0])
		}
	}
	// The original program is untouched (Rewrite copies).
	if p[0].Dst != 3 || p[0].Size != 8 {
		t.Errorf("Rewrite mutated its receiver: %v", p[0])
	}

	// Missing mappings fail loudly rather than emitting a half-mapped
	// shard.
	if _, err := (Program{add(3, 1, 2)}).Rewrite(shardOf(map[uint16]uint16{3: 13}, sizes)); err == nil {
		t.Error("missing source handle accepted")
	}
	if _, err := (Program{add(3, 1, 2)}).Rewrite(shardOf(handles, map[uint16]uint32{1: 4, 2: 4})); err == nil {
		t.Error("missing size for the defining object accepted")
	}
}

func TestValidateCustomOpcode(t *testing.T) {
	// Codes from RegisterCustom live at 128+; Validate must accept any
	// registered code and reject unregistered ones, rather than
	// range-checking against the built-in catalog length.
	unknown := Instruction{Op: FromOp(ops.Code(200)), Dst: 3, Src: [3]uint16{1, 2}, Size: 8, Width: 8}
	if err := unknown.Validate(); err == nil {
		t.Error("unregistered high opcode accepted")
	}
}
