package verify_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"simdram/internal/isa"
	"simdram/internal/logic"
	"simdram/internal/ops"
	"simdram/internal/testoracle"
	"simdram/internal/verify"
)

// fixture is a small valid program over synthetic objects that every
// mutation test corrupts: two defined 8-bit inputs (1, 2), a reused
// temporary slot (3), and two outputs (4, 5), all laid out in disjoint
// 8-row extents of a 64-data-row subarray. The slot reuse at
// instruction 2 makes the WAR/WAW hazard structure of liveness-pooled
// lowering explicit.
type fixture struct {
	prog isa.Program
	opt  verify.Options
}

func base() *fixture {
	add := isa.FromOp(ops.OpAdd)
	sub := isa.FromOp(ops.OpSub)
	var objects []verify.Object
	for i, h := range []uint16{1, 2, 3, 4, 5} {
		objects = append(objects, verify.Object{
			Handle:  h,
			Width:   8,
			Defined: h == 1 || h == 2,
			Extents: []verify.Extent{{Bank: 0, Sub: 0, Row: 8 * i, Rows: 8}},
		})
	}
	return &fixture{
		prog: isa.Program{
			{Op: isa.OpTrspInit, Src: [3]uint16{1}, Size: 64, Width: 8},
			{Op: add, Dst: 3, Src: [3]uint16{1, 2}, Size: 64, Width: 8},
			{Op: add, Dst: 4, Src: [3]uint16{3, 1}, Size: 64, Width: 8},
			{Op: sub, Dst: 3, Src: [3]uint16{2, 1}, Size: 64, Width: 8}, // slot 3 reused
			{Op: add, Dst: 5, Src: [3]uint16{3, 2}, Size: 64, Width: 8},
		},
		opt: verify.Options{Objects: objects, DataRows: 64},
	}
}

// object returns the fixture's table entry for handle h.
func (f *fixture) object(h uint16) *verify.Object {
	for i := range f.opt.Objects {
		if f.opt.Objects[i].Handle == h {
			return &f.opt.Objects[i]
		}
	}
	panic("fixture has no such object")
}

// findDiag returns the first joined diagnostic matching (check, instr,
// operand), optionally requiring a message substring.
func findDiag(t *testing.T, err error, check verify.Check, instr, operand int, contains string) *verify.Diagnostic {
	t.Helper()
	if err == nil {
		t.Fatalf("program verified clean, want a %s diagnostic", check)
	}
	var first *verify.Diagnostic
	if !errors.As(err, &first) {
		t.Fatalf("error holds no *verify.Diagnostic: %v", err)
	}
	for _, d := range testoracle.Diagnostics(err) {
		if d.Check == check && d.Instr == instr && d.Operand == operand &&
			(contains == "" || strings.Contains(d.Error(), contains)) {
			return d
		}
	}
	t.Fatalf("no %s diagnostic at instruction %d operand %d (contains %q) in: %v",
		check, instr, operand, contains, err)
	return nil
}

func TestCleanProgramVerifies(t *testing.T) {
	f := base()
	if err := verify.Program(f.prog, f.opt); err != nil {
		t.Fatalf("clean program (self-computed deps): %v", err)
	}
	f.opt.Deps = f.prog.Deps()
	if err := verify.Program(f.prog, f.opt); err != nil {
		t.Fatalf("clean program (scheduler deps): %v", err)
	}
	f.opt.Objects = nil // binding-independent checks only
	if err := verify.Program(f.prog, f.opt); err != nil {
		t.Fatalf("clean program (no binding): %v", err)
	}
}

func TestEmptyProgramRejected(t *testing.T) {
	err := verify.Program(nil, verify.Options{})
	findDiag(t, err, verify.CheckEncoding, -1, verify.OperandNone, "empty")
}

// TestSeededCorruptions is the mutation harness: every seeded
// corruption of the valid fixture must be rejected with a typed,
// located diagnostic naming the right check, instruction, and operand.
func TestSeededCorruptions(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(f *fixture)
		check    verify.Check
		instr    int
		operand  int
		contains string
	}{
		{
			name:   "dropped RAW edge",
			mutate: func(f *fixture) { f.opt.Deps = f.prog.Deps(); f.opt.Deps[2] = nil },
			check:  verify.CheckHazard,
			instr:  2, operand: 0,
			contains: "read-after-write",
		},
		{
			name: "dropped WAR edge",
			mutate: func(f *fixture) {
				f.opt.Deps = f.prog.Deps()
				f.opt.Deps[3] = []int{1} // keep WAW edge to instr 1, drop WAR edge to instr 2
			},
			check: verify.CheckHazard,
			instr: 3, operand: verify.OperandDst,
			contains: "write-after-read",
		},
		{
			name: "dropped WAW edge",
			mutate: func(f *fixture) {
				// Two back-to-back writes of slot 3 with no read between:
				// the only hazard is WAW, and the corrupted graph drops it.
				add := isa.FromOp(ops.OpAdd)
				f.prog = isa.Program{
					{Op: add, Dst: 3, Src: [3]uint16{1, 2}, Size: 64, Width: 8},
					{Op: add, Dst: 3, Src: [3]uint16{2, 1}, Size: 64, Width: 8},
				}
				f.opt.Deps = [][]int{nil, nil}
			},
			check: verify.CheckHazard,
			instr: 1, operand: verify.OperandDst,
			contains: "write-after-write",
		},
		{
			name: "swapped rows alias dst with source",
			mutate: func(f *fixture) {
				f.object(3).Extents = []verify.Extent{{Bank: 0, Sub: 0, Row: 0, Rows: 8}} // object 1's rows
			},
			check: verify.CheckAlias,
			instr: 1, operand: 0,
			contains: "overlap",
		},
		{
			name:   "narrowed width",
			mutate: func(f *fixture) { f.prog[1].Width = 4 },
			check:  verify.CheckWidth,
			instr:  1, operand: verify.OperandDst,
		},
		{
			name:   "width out of range",
			mutate: func(f *fixture) { f.prog[2].Width = 65 },
			check:  verify.CheckWidth,
			instr:  2, operand: verify.OperandNone,
		},
		{
			name: "bounds overflow",
			mutate: func(f *fixture) {
				f.object(5).Extents = []verify.Extent{{Bank: 0, Sub: 0, Row: 60, Rows: 8}} // rows [60,68) of 64
			},
			check: verify.CheckBounds,
			instr: 4, operand: verify.OperandDst,
		},
		{
			name: "arity beyond encodable range",
			mutate: func(f *fixture) {
				f.prog[1].Op = isa.FromOp(ops.OpAndRed)
				f.prog[1].N = 5
			},
			check: verify.CheckArity,
			instr: 1, operand: verify.OperandNone,
		},
		{
			name: "N-ary operand count too small",
			mutate: func(f *fixture) {
				f.prog[1].Op = isa.FromOp(ops.OpAndRed)
				f.prog[1].N = 1
			},
			check: verify.CheckArity,
			instr: 1, operand: verify.OperandNone,
		},
		{
			name:   "non-operation opcode",
			mutate: func(f *fixture) { f.prog[2].Op = 2 },
			check:  verify.CheckOpcode,
			instr:  2, operand: verify.OperandNone,
		},
		{
			name:   "unregistered operation code",
			mutate: func(f *fixture) { f.prog[2].Op = isa.OpBase + 120 },
			check:  verify.CheckOpcode,
			instr:  2, operand: verify.OperandNone,
		},
		{
			name:   "unknown handle",
			mutate: func(f *fixture) { f.prog[2].Src[1] = 77 },
			check:  verify.CheckObject,
			instr:  2, operand: 1,
		},
		{
			name: "use before definition",
			mutate: func(f *fixture) {
				f.object(2).Defined = false
			},
			check: verify.CheckDefUse,
			instr: 1, operand: 1,
		},
		{
			name:   "in-place destination",
			mutate: func(f *fixture) { f.prog[3].Dst = 2 },
			check:  verify.CheckAlias,
			instr:  3, operand: 0,
			contains: "same object",
		},
		{
			name:   "zero-size instruction",
			mutate: func(f *fixture) { f.prog[1].Size = 0 },
			check:  verify.CheckEncoding,
			instr:  1, operand: verify.OperandNone,
		},
		{
			name:   "dependence edge not earlier",
			mutate: func(f *fixture) { f.opt.Deps = f.prog.Deps(); f.opt.Deps[1] = []int{3} },
			check:  verify.CheckDeps,
			instr:  1, operand: verify.OperandNone,
		},
		{
			name:   "dependence graph wrong length",
			mutate: func(f *fixture) { f.opt.Deps = f.prog.Deps()[:3] },
			check:  verify.CheckDeps,
			instr:  -1, operand: verify.OperandNone,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := base()
			tc.mutate(f)
			err := verify.Program(f.prog, f.opt)
			d := findDiag(t, err, tc.check, tc.instr, tc.operand, tc.contains)
			if got := d.Error(); !strings.HasPrefix(got, "verify: "+string(tc.check)) {
				t.Fatalf("diagnostic %q does not lead with its check", got)
			}
		})
	}
}

// TestDiagnosticsOrder pins that Diagnostics unpacks every joined
// failure and that multiple corruptions are all reported.
func TestDiagnosticsOrder(t *testing.T) {
	f := base()
	f.prog[1].Size = 0
	f.prog[2].Src[1] = 77
	err := verify.Program(f.prog, f.opt)
	ds := testoracle.Diagnostics(err)
	if len(ds) < 2 {
		t.Fatalf("want >= 2 diagnostics, got %d: %v", len(ds), err)
	}
	findDiag(t, err, verify.CheckEncoding, 1, verify.OperandNone, "")
	findDiag(t, err, verify.CheckObject, 2, 1, "")
}

// registerXnor and registerArity4 register TestCustomOpVerifies's
// operations once per process: the operation catalog is process-wide,
// so registering again (as a second run of the test under -count
// would) fails.
var (
	registerXnor = sync.OnceValues(func() (ops.Code, error) {
		return ops.RegisterCustom(ops.Def{
			Name:     "verify_test_xnor",
			Arity:    2,
			DstWidth: func(w int) int { return w },
			Build:    func(w, n int) (*logic.Circuit, error) { return nil, nil },
			Golden:   func(args []uint64, w int) uint64 { return ^(args[0] ^ args[1]) },
		})
	})
	registerArity4 = sync.OnceValues(func() (ops.Code, error) {
		return ops.RegisterCustom(ops.Def{
			Name:     "verify_test_arity4",
			Arity:    4,
			DstWidth: func(w int) int { return w },
			Build:    func(w, n int) (*logic.Circuit, error) { return nil, nil },
			Golden:   func(args []uint64, w int) uint64 { return 0 },
		})
	})
)

// TestCustomOpVerifies pins that RegisterCustom operations are
// first-class verifier subjects: a registered custom op verifies
// clean, and an unencodable arity-4 custom op is rejected.
func TestCustomOpVerifies(t *testing.T) {
	code, err := registerXnor()
	if err != nil {
		t.Fatalf("RegisterCustom: %v", err)
	}
	f := base()
	f.prog[1].Op = isa.FromOp(code)
	if err := verify.Program(f.prog, f.opt); err != nil {
		t.Fatalf("custom op program: %v", err)
	}

	wide, err := registerArity4()
	if err != nil {
		t.Fatalf("RegisterCustom: %v", err)
	}
	f = base()
	f.prog[1].Op = isa.FromOp(wide)
	err = verify.Program(f.prog, f.opt)
	findDiag(t, err, verify.CheckArity, 1, verify.OperandNone, "encodable")
}
