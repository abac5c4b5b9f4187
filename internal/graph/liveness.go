package graph

import "slices"

// Assignment is the result of the liveness pass: every scheduled
// non-root operation node mapped to a temporary-storage slot, plus the
// row accounting that quantifies what lifetime reuse saved. Slot i
// holds SlotWidths[i]-bit elements; the facade allocates one vector
// per slot and binds every node assigned to it.
type Assignment struct {
	// SlotOf maps each scheduled non-root op node to its slot index.
	// Root nodes are absent: their results land in caller-visible
	// vectors that outlive the batch, never in pooled temporaries.
	SlotOf map[NodeID]int
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
	// lastUse[a] is the schedule position of the last scheduled reader.
	lastUse := make([]int, g.Len())
	for i, id := range sched {
		for _, a := range g.Node(id).Args() {
			lastUse[a] = i
		}
	}
	asg := Assignment{SlotOf: map[NodeID]int{}}
	freeByWidth := map[int][]int{}
	for i, id := range sched {
		n := g.Node(id)
		if !n.Root {
			asg.NaiveRows += n.Width
			var slot int
			if pool := freeByWidth[n.Width]; reuse && len(pool) > 0 {
				slot = pool[len(pool)-1]
				freeByWidth[n.Width] = pool[:len(pool)-1]
			} else {
				slot = len(asg.SlotWidths)
				asg.SlotWidths = append(asg.SlotWidths, n.Width)
			}
			asg.SlotOf[id] = slot
		}
		for k, a := range n.Args() {
			if slices.Contains(n.Args()[:k], a) {
				continue // a repeated argument frees its slot once
			}
			slot, pooled := asg.SlotOf[a]
			if pooled && lastUse[a] == i {
				w := g.Node(a).Width
				freeByWidth[w] = append(freeByWidth[w], slot)
			}
		}
	}
	for _, w := range asg.SlotWidths {
		asg.PooledRows += w
	}
	return asg
}
