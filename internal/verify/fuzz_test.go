package verify_test

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"simdram/internal/isa"
	"simdram/internal/ops"
	"simdram/internal/testoracle"
	"simdram/internal/verify"
)

// fuzzHandles are the handles fuzz programs name: a dense low range,
// the unused-slot handle 0, and handles in other words of the handle
// space, so ranking crosses word boundaries.
var fuzzHandles = []uint16{0, 1, 2, 3, 4, 5, 6, 63, 64, 130, 4100, 65535}

// fuzzOpcodes are the opcodes fuzz instructions draw from: valid
// operations of every arity and width signature, bbop_trsp_init, a
// non-operation opcode and an unregistered operation code.
var fuzzOpcodes = []isa.Opcode{
	isa.OpTrspInit, 2, isa.OpBase + 120,
	isa.FromOp(ops.OpAdd), isa.FromOp(ops.OpSub), isa.FromOp(ops.OpMax),
	isa.FromOp(ops.OpMul), isa.FromOp(ops.OpEqual), isa.FromOp(ops.OpNot),
	isa.FromOp(ops.OpIfElse), isa.FromOp(ops.OpAndRed), isa.FromOp(ops.OpBitCount),
}

// fuzzBytes hands out fuzz input one byte at a time, zeros once it
// runs dry.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

func (b *fuzzBytes) pick(n int) int { return int(b.next()) % n }

// fuzzCase decodes a program, an object table (as the oracle's map;
// nil for an untracked verification), a data-row bound and a
// dependence graph (nil, the program's own, or a corrupted copy).
func fuzzCase(data []byte) (isa.Program, map[uint16]verify.Object, int, [][]int) {
	b := fuzzBytes(data)
	prog := make(isa.Program, b.pick(10))
	for i := range prog {
		in := &prog[i]
		in.Op = fuzzOpcodes[b.pick(len(fuzzOpcodes))]
		in.Dst = fuzzHandles[b.pick(len(fuzzHandles))]
		for k := range in.Src {
			in.Src[k] = fuzzHandles[b.pick(len(fuzzHandles))]
		}
		in.Width = []uint8{8, 8, 8, 16, 1, 0, 65}[b.pick(7)]
		in.N = uint8(b.pick(5))
		in.Size = []uint32{64, 64, 64, 0}[b.pick(4)]
	}

	var objects map[uint16]verify.Object
	if b.pick(6) != 0 {
		objects = map[uint16]verify.Object{}
		for _, h := range fuzzHandles {
			if b.pick(4) == 0 {
				continue
			}
			o := verify.Object{Width: []int{8, 8, 16, 1, 4}[b.pick(5)], Defined: b.pick(2) == 0}
			for range b.pick(3) {
				o.Extents = append(o.Extents, verify.Extent{
					Bank: b.pick(2), Sub: b.pick(2), Row: b.pick(72) - 4, Rows: b.pick(20),
				})
			}
			objects[h] = o
		}
	}
	dataRows := []int{64, 64, 0}[b.pick(3)]

	var deps [][]int
	switch b.pick(3) {
	case 1:
		deps = prog.Deps()
	case 2:
		deps = prog.Deps()
		if len(deps) > 0 {
			i := b.pick(len(deps))
			switch b.pick(4) {
			case 0:
				deps[i] = nil // drop every edge
			case 1:
				deps[i] = append(slices.Clip(deps[i]), b.pick(len(deps)+1)-1) // maybe not earlier
			case 2:
				deps = deps[:i] // wrong length
			default:
				if len(deps[i]) > 0 {
					deps[i] = deps[i][1:] // drop one edge
				}
			}
		}
	}
	return prog, objects, dataRows, deps
}

// sortedObjects is the verifier's object table for the oracle's map.
func sortedObjects(m map[uint16]verify.Object) []verify.Object {
	if m == nil {
		return nil
	}
	out := make([]verify.Object, 0, len(m))
	for h, o := range m {
		o.Handle = h
		out = append(out, o)
	}
	slices.SortFunc(out, func(a, b verify.Object) int { return cmp.Compare(a.Handle, b.Handle) })
	return out
}

// checkAgainstOracle verifies one case with verify.Program and with
// the oracle and requires the same diagnostics in the same order.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	prog, objects, dataRows, deps := fuzzCase(data)
	want := oracleProgram(prog, objects, dataRows, deps)
	err := verify.Program(prog, verify.Options{Objects: sortedObjects(objects), DataRows: dataRows, Deps: deps})
	got := testoracle.Diagnostics(err)
	if len(got) != len(want) {
		t.Fatalf("%d diagnostics, the oracle has %d:\ngot  %v\nwant %v\nprogram %v", len(got), len(want), err, want, prog)
	}
	for i, d := range got {
		w := want[i]
		if d.Check != w.check || d.Instr != w.instr || d.Operand != w.operand || d.Handle != w.handle || d.Error() != w.text {
			t.Fatalf("diagnostic %d is %q (check %s, instruction %d, operand %d, handle %d), the oracle's %q (check %s, instruction %d, operand %d, handle %d)\nprogram %v",
				i, d.Error(), d.Check, d.Instr, d.Operand, d.Handle, w.text, w.check, w.instr, w.operand, w.handle, prog)
		}
	}
}

// FuzzProgram holds the verifier to oracleProgram, the map-keyed,
// comparison-sorting verifier it replaced, on byte-driven programs,
// object tables and dependence graphs: every diagnostic must match in
// check, instruction, operand, handle, text and order.
func FuzzProgram(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 16 {
		data := make([]byte, 40+rng.Intn(80))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(checkAgainstOracle)
}

// TestProgramMatchesOracle runs 2000 seeded random cases through the
// oracle comparison, beyond the fuzz target's checked-in seeds.
func TestProgramMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for range 2000 {
		data := make([]byte, rng.Intn(160))
		rng.Read(data)
		checkAgainstOracle(t, data)
	}
}

// TestObjectTableOrder pins the one diagnostic the old map-keyed table
// could not need: a table out of handle order (or listing a handle
// twice) is rejected before any instruction is checked.
func TestObjectTableOrder(t *testing.T) {
	f := base()
	f.opt.Objects[1], f.opt.Objects[2] = f.opt.Objects[2], f.opt.Objects[1]
	err := verify.Program(f.prog, f.opt)
	ds := testoracle.Diagnostics(err)
	if len(ds) != 1 || ds[0].Check != verify.CheckObject || ds[0].Instr != -1 {
		t.Fatalf("unsorted table: %v, want one program-level object diagnostic", err)
	}
	f = base()
	f.opt.Objects[1].Handle = f.opt.Objects[0].Handle
	if ds := testoracle.Diagnostics(verify.Program(f.prog, f.opt)); len(ds) != 1 || ds[0].Check != verify.CheckObject {
		t.Fatalf("duplicate handle: %v, want one object diagnostic", ds)
	}
}
