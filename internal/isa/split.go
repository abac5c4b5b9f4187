package isa

import "fmt"

// Rewrite builds one shard's sub-program for sharded execution: a copy
// of p with every live object handle mapped through shard and every
// instruction's element count replaced by the size shard reports for
// its defining object (the destination for operations, the announced
// object for bbop_trsp_init). shard reports, for an object handle,
// the object's handle on the shard (0, the invalid handle, when it has
// no part there), its element count there, and whether it knows the
// object at all. Instructions whose new size is zero are dropped —
// that shard holds no elements of the object. An unknown defining
// object, or a live operand with no handle on the shard, is an error:
// the caller failed to place every operand on the shard.
//
// Because sizes and handles are per-shard, calling Rewrite once per
// shard splits a cluster-level program into the per-channel programs
// whose concatenated effects equal the original.
func (p Program) Rewrite(shard func(h uint16) (handle uint16, size uint32, ok bool)) (Program, error) {
	out := make(Program, 0, len(p))
	for i, in := range p {
		key := in.Dst
		if in.Op == OpTrspInit {
			key = in.Src[0]
		}
		_, size, ok := shard(key)
		if !ok {
			return nil, fmt.Errorf("isa: instruction %d (%s): no shard size for object %d", i, in, key)
		}
		if size == 0 {
			continue
		}
		ni := in
		ni.Size = size
		if in.Op.IsOperation() {
			nd, _, _ := shard(in.Dst)
			if nd == 0 {
				return nil, fmt.Errorf("isa: instruction %d (%s): no shard handle for object %d", i, in, in.Dst)
			}
			ni.Dst = nd
		}
		for k := range in.numReads() {
			ns, _, _ := shard(in.Src[k])
			if ns == 0 {
				return nil, fmt.Errorf("isa: instruction %d (%s): no shard handle for object %d", i, in, in.Src[k])
			}
			ni.Src[k] = ns
		}
		out = append(out, ni)
	}
	return out, nil
}
