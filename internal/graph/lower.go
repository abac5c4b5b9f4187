package graph

import (
	"fmt"
	"slices"

	"simdram/internal/isa"
)

// HandleOf resolves a node to the bbop object handle of the storage
// that holds its value at execution time: the caller-provided vector
// for inputs, the splatted constant vector for constants, the pooled
// slot vector for intermediates, and the result vector for roots.
type HandleOf func(NodeID) (uint16, error)

// Lower emits the scheduled DAG as an isa.Program over object handles:
// one bbop instruction per scheduled operation node, in schedule order,
// appended to prog (nil, or a recycled program's storage) and returned.
// Slot reuse shows up to the batched engine as ordinary WAR/WAW hazards
// over the slot handles, so isa.Program.Deps keeps reused rows
// correctly ordered while everything else overlaps. size is the element
// count every instruction operates on.
func Lower(prog isa.Program, g *Graph, sched []NodeID, handle HandleOf, size uint32) (isa.Program, error) {
	prog = slices.Grow(prog, len(sched))
	for _, id := range sched {
		n := g.Node(id)
		if n.Kind != KindOp {
			return nil, fmt.Errorf("graph: scheduled node %d is not an operation", id)
		}
		dst, err := handle(id)
		if err != nil {
			return nil, fmt.Errorf("graph: node %d: %w", id, err)
		}
		in := isa.Instruction{
			Op:    isa.FromOp(n.Op.Code),
			Dst:   dst,
			Size:  size,
			Width: uint8(g.OpWidth(id)),
			N:     uint8(len(n.Args())),
		}
		for k, a := range n.Args() {
			h, err := handle(a)
			if err != nil {
				return nil, fmt.Errorf("graph: node %d argument %d: %w", id, k, err)
			}
			in.Src[k] = h
		}
		prog = append(prog, in)
	}
	return prog, nil
}
