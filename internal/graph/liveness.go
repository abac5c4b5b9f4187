package graph

import "slices"

// noSlot marks a node with no pooled slot in Assignment.SlotOf.
const noSlot = -1

// Assignment is the result of the liveness pass: every scheduled
// non-root operation node mapped to a temporary-storage slot, plus the
// row accounting that quantifies what lifetime reuse saved. Slot i
// holds SlotWidths[i]-bit elements; the facade allocates one vector
// per slot and binds every node assigned to it.
type Assignment struct {
	// SlotOf maps each scheduled non-root op node to its slot index,
	// indexed by NodeID; every other node holds -1. Root nodes get no
	// slot: their results land in caller-visible vectors that outlive
	// the batch, never in pooled temporaries.
	SlotOf []int32
	// SlotWidths is the element width of every slot, indexed by slot.
	SlotWidths []int
	// NaiveRows is the DRAM rows per subarray that one fresh temporary
	// per intermediate would allocate (the sum of every intermediate's
	// width) — the baseline reuse is measured against.
	NaiveRows int
	// PooledRows is the rows per subarray the slot pool actually
	// allocates (the sum of SlotWidths).
	PooledRows int
}

// Assign runs liveness over a schedule and packs intermediates into
// reused slots: walking the schedule, each value's slot returns to a
// per-width free pool right after the instruction that uses it last, so
// the next intermediate of that width reuses those rows instead of
// allocating fresh ones. A slot is never handed to the instruction that
// frees it — the destination must not alias a source — so release
// happens after the current node claims its own slot. With reuse false
// every intermediate gets a fresh slot (the naive per-node allocation
// the benchmarks compare against).
func Assign(g *Graph, sched []NodeID, reuse bool) Assignment {
	n := g.Len()
	// One scratch array: lastUse[a] is the schedule position of a's
	// last scheduled reader; next threads each width's free list (a
	// LIFO stack of slots) through the slot indices, headed by free.
	scratch := make([]int32, 2*n)
	lastUse, next := scratch[:n], scratch[n:]
	for i, id := range sched {
		for _, a := range g.Node(id).Args() {
			lastUse[a] = int32(i)
		}
	}
	// free heads each width's list. A width outside 1..64 (a custom
	// operation's, which no vector can hold) is never pooled.
	var free [65]int32
	for w := range free {
		free[w] = noSlot
	}
	pooled := func(w int) bool { return reuse && w >= 1 && w < len(free) }
	asg := Assignment{SlotOf: make([]int32, n)}
	for id := range asg.SlotOf {
		asg.SlotOf[id] = noSlot
	}
	nonRoot := 0 // an upper bound on the slots
	for _, id := range sched {
		if !g.Node(id).Root {
			nonRoot++
		}
	}
	if nonRoot > 0 {
		asg.SlotWidths = make([]int, 0, nonRoot)
	}
	for i, id := range sched {
		nd := g.Node(id)
		if !nd.Root {
			asg.NaiveRows += nd.Width
			slot := int32(len(asg.SlotWidths))
			if pooled(nd.Width) && free[nd.Width] != noSlot {
				slot = free[nd.Width]
				free[nd.Width] = next[slot]
			} else {
				asg.SlotWidths = append(asg.SlotWidths, nd.Width)
			}
			asg.SlotOf[id] = slot
		}
		for k, a := range nd.Args() {
			if slices.Contains(nd.Args()[:k], a) {
				continue // a repeated argument frees its slot once
			}
			if w := g.Node(a).Width; pooled(w) && asg.SlotOf[a] != noSlot && lastUse[a] == int32(i) {
				slot := asg.SlotOf[a]
				next[slot] = free[w]
				free[w] = slot
			}
		}
	}
	for _, w := range asg.SlotWidths {
		asg.PooledRows += w
	}
	return asg
}
