package isa

import (
	"fmt"
	"slices"
	"sync"

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
// The analysis allocates only its result: handles are numbered densely
// by their rank among the program's distinct handles (HandleSet),
// each handle's readers since its last write form a linked list in one
// array, and each instruction's edges are collected into one reused buffer, then
// sorted and compacted — all in working storage recycled from call to
// call, concurrent calls included. The per-instruction results share
// one backing array, capacity-capped so appending to one never
// clobbers another.
func (p Program) Deps() [][]int {
	deps, _ := p.DepsInto(nil, nil)
	return deps
}

// DepsInto is Deps into the caller's storage: the result reuses deps'
// array and the edge array flat when they are large enough, and flat
// is returned with the edges (grown if it fell short), so a caller
// that recycles both allocates nothing once they have grown. The
// caller must be done with every slice of an earlier result it passes
// back in.
func (p Program) DepsInto(deps [][]int, flat []int) ([][]int, []int) {
	sc := depsPool.Get().(*depsScratch)
	defer depsPool.Put(sc)
	if deps == nil || cap(deps) < len(p) {
		deps = make([][]int, len(p))
	} else {
		deps = deps[:len(p)]
		clear(deps)
	}
	if cap(flat) < 2*len(p) {
		flat = make([]int, 0, 2*len(p)) // room for two edges per instruction
	}
	flat = flat[:0]
	nr := sized(sc.nr, len(p)) // instruction → numReads
	rk := &sc.rank
	defer rk.Reset()
	for i := range p {
		in := &p[i]
		nr[i] = uint8(in.numReads())
		for _, h := range in.Src[:nr[i]] {
			rk.Mark(h)
		}
		if in.Op.IsOperation() {
			rk.Mark(in.Dst)
		}
	}
	nh := rk.Seal()
	// Both tables hold 1 + an index, so 0 means none.
	lastWriter := sized(sc.lastWriter, nh) // handle → last instruction that wrote it
	readers := sized(sc.readers, nh)       // handle → newest reader entry since its last write
	entries := sc.entries[:0]
	buf := sc.buf[:0]
	for i := range p {
		in := &p[i]
		buf = buf[:0]
		reads := in.Src[:nr[i]]
		for _, h := range reads {
			if w := lastWriter[rk.Of(h)]; w > 0 {
				buf = append(buf, w-1) // RAW
			}
		}
		dst := -1
		if in.Op.IsOperation() {
			dst = rk.Of(in.Dst)
			if w := lastWriter[dst]; w > 0 {
				buf = append(buf, w-1) // WAW
			}
			for e := readers[dst]; e > 0; e = entries[e-1].next {
				buf = append(buf, entries[e-1].instr) // WAR
			}
		}
		for _, h := range reads {
			k := rk.Of(h)
			entries = append(entries, depsReader{instr: i, next: readers[k]})
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
	sc.nr, sc.lastWriter, sc.readers, sc.entries, sc.buf = nr, lastWriter, readers, entries, buf
	return deps, flat
}

// depsScratch is Deps' working storage, recycled through depsPool.
type depsScratch struct {
	nr                  []uint8
	rank                HandleSet
	lastWriter, readers []int
	entries             []depsReader
	buf                 []int
}

// depsReader is one read in Deps' per-handle reader lists.
type depsReader struct{ instr, next int }

var depsPool = sync.Pool{New: func() any { return new(depsScratch) }}

// sized returns s resized to n zeroed elements, reusing its backing
// array when it is large enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
