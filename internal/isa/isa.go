// Package isa defines SIMDRAM's ISA extension: the bbop (bulk bitwise
// operation) instructions a program or compiler uses to talk to the
// SIMDRAM control unit (paper §4). There are two instruction classes:
//
//	bbop_trsp_init src, size, n   — announce an object so stores to it are
//	                                transposed to the vertical layout
//	bbop_<op>      dst, src…, size, n — execute operation <op> in DRAM
//
// Instructions are encoded into two 64-bit words so they can be embedded
// in a conventional instruction stream; the control unit decodes them and
// sequences the corresponding μProgram.
package isa

import (
	"fmt"

	"simdram/internal/ops"
)

// Opcode identifies a bbop instruction.
type Opcode uint8

// Opcodes. Operation opcodes are offset from ops.Code by OpBase so that
// control opcodes stay stable as the operation library grows.
const (
	OpInvalid  Opcode = 0
	OpTrspInit Opcode = 1 // bbop_trsp_init
	OpBase     Opcode = 16
)

// FromOp converts an operation code to its bbop opcode.
func FromOp(c ops.Code) Opcode { return OpBase + Opcode(c) }

// ToOp converts a bbop opcode back to an operation code.
func (o Opcode) ToOp() (ops.Code, error) {
	if o < OpBase {
		return 0, fmt.Errorf("isa: opcode %d is not an operation", o)
	}
	return ops.Code(o - OpBase), nil
}

// IsOperation reports whether the opcode invokes a μProgram.
func (o Opcode) IsOperation() bool { return o >= OpBase }

// Instruction is a decoded bbop instruction. Handles are opaque object
// identifiers resolved by the runtime's object tracker (the paper uses
// virtual base addresses; handles play the same role in the simulator).
type Instruction struct {
	Op    Opcode
	Dst   uint16    // destination object handle
	Src   [3]uint16 // source object handles (operand-major)
	Size  uint32    // number of elements
	Width uint8     // element width in bits (1-64)
	N     uint8     // operand count for N-ary operations
}

// Encoding layout (two 64-bit words):
//
//	word0: [63:56]=opcode [55:48]=width [47:40]=n [31:0]=size
//	word1: [63:48]=dst [47:32]=src0 [31:16]=src1 [15:0]=src2
type Encoded [2]uint64

// Encode packs the instruction.
//
//simdram:testapi the bbop wire format, round-tripped and fuzzed (FuzzValidate)
func (in Instruction) Encode() Encoded {
	var e Encoded
	e[0] = uint64(in.Op)<<56 | uint64(in.Width)<<48 | uint64(in.N)<<40 | uint64(in.Size)
	e[1] = uint64(in.Dst)<<48 | uint64(in.Src[0])<<32 | uint64(in.Src[1])<<16 | uint64(in.Src[2])
	return e
}

// Decode unpacks an encoded instruction.
//
//simdram:testapi the bbop wire format, round-tripped and fuzzed (FuzzValidate)
func Decode(e Encoded) (Instruction, error) {
	in := Instruction{
		Op:    Opcode(e[0] >> 56),
		Width: uint8(e[0] >> 48),
		N:     uint8(e[0] >> 40),
		Size:  uint32(e[0]),
		Dst:   uint16(e[1] >> 48),
		Src:   [3]uint16{uint16(e[1] >> 32), uint16(e[1] >> 16), uint16(e[1])},
	}
	if err := in.Validate(); err != nil {
		return Instruction{}, err
	}
	return in, nil
}

// Validate checks field ranges and opcode validity.
func (in Instruction) Validate() error {
	if in.Op == OpInvalid {
		return fmt.Errorf("isa: invalid opcode")
	}
	if in.Op != OpTrspInit {
		code, err := in.Op.ToOp()
		if err != nil {
			return err
		}
		// Look the code up rather than range-checking against the catalog
		// length: user operations registered through RegisterCustom carry
		// codes far above the built-in range, and they are first-class
		// bbop targets (the framework's extensibility story).
		if _, err := ops.ByCode(code); err != nil {
			return fmt.Errorf("isa: opcode %d names no registered operation", in.Op)
		}
	}
	if in.Width < 1 || in.Width > 64 {
		return fmt.Errorf("isa: width %d out of range [1,64]", in.Width)
	}
	if in.Size == 0 {
		return fmt.Errorf("isa: zero-size instruction")
	}
	return nil
}

// String renders the instruction in assembly-like form.
func (in Instruction) String() string {
	if in.Op == OpTrspInit {
		return fmt.Sprintf("bbop_trsp_init obj%d, size=%d, w=%d", in.Src[0], in.Size, in.Width)
	}
	op, err := in.Op.ToOp()
	if err != nil {
		return fmt.Sprintf("bbop_invalid(%d)", in.Op)
	}
	d, err := ops.ByCode(op)
	name := "?"
	if err == nil {
		name = d.Name
	}
	arity := 2
	if err == nil {
		arity = d.EffArity(int(in.N))
	}
	s := fmt.Sprintf("bbop_%s obj%d", name, in.Dst)
	for k := 0; k < arity && k < 3; k++ {
		s += fmt.Sprintf(", obj%d", in.Src[k])
	}
	return fmt.Sprintf("%s, size=%d, w=%d", s, in.Size, in.Width)
}
