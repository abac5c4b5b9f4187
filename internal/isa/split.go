package isa

import "fmt"

// Rewrite builds one shard's sub-program for sharded execution: a copy
// of p with every live object handle mapped through handles and every
// instruction's element count replaced by sizes[key], where key is the
// instruction's defining object (the destination for operations, the
// announced object for bbop_trsp_init). Instructions whose new size is
// zero are dropped — that shard holds no elements of the object. A live
// handle missing from either map is an error: the caller failed to
// place every operand on the shard.
//
// Because sizes and handles are per-shard, calling Rewrite once per
// shard splits a cluster-level program into the per-channel programs
// whose concatenated effects equal the original.
func (p Program) Rewrite(handles map[uint16]uint16, sizes map[uint16]uint32) (Program, error) {
	out := make(Program, 0, len(p))
	for i, in := range p {
		key := in.Dst
		if in.Op == OpTrspInit {
			key = in.Src[0]
		}
		size, ok := sizes[key]
		if !ok {
			return nil, fmt.Errorf("isa: instruction %d (%s): no shard size for object %d", i, in, key)
		}
		if size == 0 {
			continue
		}
		ni := in
		ni.Size = size
		if in.Op.IsOperation() {
			nd, ok := handles[in.Dst]
			if !ok {
				return nil, fmt.Errorf("isa: instruction %d (%s): no shard handle for object %d", i, in, in.Dst)
			}
			ni.Dst = nd
		}
		for k := range in.numReads() {
			ns, ok := handles[in.Src[k]]
			if !ok {
				return nil, fmt.Errorf("isa: instruction %d (%s): no shard handle for object %d", i, in, in.Src[k])
			}
			ni.Src[k] = ns
		}
		out = append(out, ni)
	}
	return out, nil
}
