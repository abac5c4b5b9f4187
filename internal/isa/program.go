package isa

import (
	"fmt"
	"slices"

	"simdram/internal/ops"
)

// Program is an ordered sequence of bbop instructions — the unit of work
// the batched execution engine accepts. Program order defines the
// sequential semantics; Deps extracts the data-hazard graph a scheduler
// may exploit to overlap independent instructions while preserving those
// semantics.
type Program []Instruction

// Validate checks every instruction in the program.
func (p Program) Validate() error {
	if len(p) == 0 {
		return fmt.Errorf("isa: empty program")
	}
	for i, in := range p {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("isa: instruction %d: %w", i, err)
		}
	}
	return nil
}

// EncodeProgram packs every instruction of the program.
func EncodeProgram(p Program) []Encoded {
	out := make([]Encoded, len(p))
	for i, in := range p {
		out[i] = in.Encode()
	}
	return out
}

// DecodeProgram unpacks a sequence of encoded instructions.
func DecodeProgram(es []Encoded) (Program, error) {
	p := make(Program, len(es))
	for i, e := range es {
		in, err := Decode(e)
		if err != nil {
			return nil, fmt.Errorf("isa: instruction %d: %w", i, err)
		}
		p[i] = in
	}
	return p, nil
}

// Reads returns the object handles the instruction reads. For operation
// instructions that is the live source operands (the operation's
// effective arity); bbop_trsp_init reads the object it announces. If the
// opcode cannot be resolved, all three source slots are returned — a
// conservative over-approximation that never drops a hazard.
func (in Instruction) Reads() []uint16 {
	return append([]uint16(nil), in.Src[:in.numReads()]...)
}

// numReads returns how many leading source slots the instruction
// reads: Reads without the copy.
func (in *Instruction) numReads() int {
	if in.Op == OpTrspInit {
		return 1
	}
	if code, err := in.Op.ToOp(); err == nil {
		if d, err := ops.ByCode(code); err == nil {
			return min(d.EffArity(int(in.N)), 3)
		}
	}
	return 3
}

// Writes returns the object handles the instruction writes:
// the destination for operation instructions, nothing for
// bbop_trsp_init.
func (in Instruction) Writes() []uint16 {
	if !in.Op.IsOperation() {
		return nil
	}
	return []uint16{in.Dst}
}

// Deps returns, for each instruction, the (sorted, deduplicated) indices
// of earlier instructions it must complete after. All three hazard
// classes over object handles are covered:
//
//   - read-after-write: a source was written by an earlier instruction
//   - write-after-write: the destination was written earlier
//   - write-after-read: the destination is read by an earlier instruction
//
// Executing instructions in any order consistent with these edges is
// indistinguishable from sequential program order.
//
// The analysis allocates per program, not per instruction: handles are
// numbered densely by their rank among the program's distinct handles,
// each handle's readers since its last write form a linked list in one
// array, and each instruction's edges are collected into one reused
// buffer, then sorted and compacted. The per-instruction results share
// one backing array, capacity-capped so appending to one never
// clobbers another.
func (p Program) Deps() [][]int {
	deps := make([][]int, len(p))
	nr := make([]uint8, len(p)) // instruction → numReads
	hs := make([]uint16, 0, 4*len(p))
	for i := range p {
		in := &p[i]
		nr[i] = uint8(in.numReads())
		hs = append(hs, in.Src[:nr[i]]...)
		if in.Op.IsOperation() {
			hs = append(hs, in.Dst)
		}
	}
	slices.Sort(hs)
	hs = slices.Compact(hs)
	rank := func(h uint16) int {
		k, _ := slices.BinarySearch(hs, h)
		return k
	}
	// Both tables hold 1 + an index, so 0 means none.
	lastWriter := make([]int, len(hs)) // handle → last instruction that wrote it
	readers := make([]int, len(hs))    // handle → newest reader entry since its last write
	type reader struct{ instr, next int }
	entries := make([]reader, 0, 3*len(p))
	var buf []int
	flat := make([]int, 0, 2*len(p)) // room for two edges per instruction
	for i := range p {
		in := &p[i]
		buf = buf[:0]
		reads := in.Src[:nr[i]]
		for _, h := range reads {
			if w := lastWriter[rank(h)]; w > 0 {
				buf = append(buf, w-1) // RAW
			}
		}
		dst := -1
		if in.Op.IsOperation() {
			dst = rank(in.Dst)
			if w := lastWriter[dst]; w > 0 {
				buf = append(buf, w-1) // WAW
			}
			for e := readers[dst]; e > 0; e = entries[e-1].next {
				buf = append(buf, entries[e-1].instr) // WAR
			}
		}
		for _, h := range reads {
			k := rank(h)
			entries = append(entries, reader{instr: i, next: readers[k]})
			readers[k] = len(entries)
		}
		if dst >= 0 {
			lastWriter[dst] = i + 1
			readers[dst] = 0
		}
		if len(buf) == 0 {
			continue
		}
		slices.Sort(buf)
		buf = slices.Compact(buf)
		start := len(flat)
		flat = append(flat, buf...)
		deps[i] = flat[start:len(flat):len(flat)]
	}
	return deps
}
