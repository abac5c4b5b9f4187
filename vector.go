package simdram

// Vector is a SIMDRAM object: n elements of a given bit width stored in
// the vertical layout across one or more subarrays. Element j of segment
// i occupies column j of that subarray, bits in consecutive rows.
type Vector struct {
	sys    *System
	handle uint16
	// serial names the object to the transposition unit's line buffer.
	// Handles are recycled; serials never repeat within a System, so a
	// new object never inherits a freed one's buffered lines.
	serial uint64
	n      int
	width  int
	segs   []segment
	freed  bool
	view   bool    // aliases another vector's rows; Free releases nothing
	base   *Vector // for views: the row-owning vector this view aliases
	views  []*Vector
}

type segment struct {
	bank, sub int
	baseRow   int
	lanes     int // elements mapped to this subarray (≤ Cols)
}

// AllocVector reserves rows for n elements of the given width. Segments
// are spread bank-major so that consecutive segments execute in parallel
// banks. Vectors allocated in the same order with the same n share their
// segment placement, which is what lets an operation's sources and
// destination meet in the same subarrays.
func (s *System) AllocVector(n, width int) (*Vector, error) {
	return s.allocVector(n, width, 0)
}

// AllocVectorAt is AllocVector with an explicit starting placement: the
// first segment lands in the given (bank, subarray) and later segments
// continue the bank-major order from there. Operands of one operation
// must share placement (allocate them with the same origin and length);
// giving *different* origins to independent operand groups spreads them
// across banks, which is what lets ExecBatch overlap their
// instructions.
func (s *System) AllocVectorAt(n, width, bank, sub int) (*Vector, error) {
	if bank < 0 || bank >= s.cfg.DRAM.Banks || sub < 0 || sub >= s.cfg.DRAM.SubarraysPerBank {
		return nil, errorf("placement (%d,%d) out of range", bank, sub)
	}
	return s.allocVector(n, width, bank+sub*s.cfg.DRAM.Banks)
}

// allocVector reserves rows starting at position origin of the
// bank-major segment order.
func (s *System) allocVector(n, width, origin int) (*Vector, error) {
	if n <= 0 {
		return nil, errorf("vector size must be positive, have %d", n)
	}
	if width < 1 || width > 64 {
		return nil, errorf("width %d out of range [1,64]", width)
	}
	cols := s.cfg.DRAM.Cols
	nSegs := (n + cols - 1) / cols
	v := &Vector{sys: s, n: n, width: width}
	remaining := n
	for i := 0; i < nSegs; i++ {
		bank, sub := s.segmentOrder(origin + i)
		base, ok := s.rows[bank][sub].alloc(width)
		if !ok {
			// Roll back what this vector already claimed.
			for _, seg := range v.segs {
				s.rows[seg.bank][seg.sub].release(seg.baseRow, width)
			}
			return nil, errorf("out of data rows in bank %d subarray %d (need %d rows)", bank, sub, width)
		}
		lanes := cols
		if remaining < lanes {
			lanes = remaining
		}
		remaining -= lanes
		v.segs = append(v.segs, segment{bank: bank, sub: sub, baseRow: base, lanes: lanes})
	}
	h, err := s.handles.alloc()
	if err != nil {
		for _, seg := range v.segs {
			s.rows[seg.bank][seg.sub].release(seg.baseRow, width)
		}
		return nil, err
	}
	v.handle = h
	v.serial = s.nextSerial()
	s.objects[v.handle] = v
	return v, nil
}

// Handle returns the object handle used in bbop instructions.
func (v *Vector) Handle() uint16 { return v.handle }

// Len returns the element count.
func (v *Vector) Len() int { return v.n }

// Width returns the element width in bits.
func (v *Vector) Width() int { return v.width }

// Free releases the vector's handle and returns its rows to the
// subarray allocators for reuse. Freeing a View releases only the handle;
// the underlying vector still owns the rows. Freeing a base vector with
// outstanding Views invalidates them first — their rows are about to be
// reallocated, so any later use of such a view fails like use of any
// freed vector instead of silently reading recycled rows.
func (v *Vector) Free() {
	if v.freed {
		return
	}
	if v.view {
		// Unregister from the row owner so freed views don't pile up on
		// a long-lived base.
		vs := v.base.views
		for i, vw := range vs {
			if vw == v {
				vs[i] = vs[len(vs)-1]
				v.base.views = vs[:len(vs)-1]
				break
			}
		}
	} else {
		for _, vw := range v.views {
			delete(vw.sys.objects, vw.handle)
			vw.sys.handles.release(vw.handle)
			vw.freed = true
		}
		v.views = nil
		for _, seg := range v.segs {
			v.sys.rows[seg.bank][seg.sub].release(seg.baseRow, v.width)
		}
	}
	delete(v.sys.objects, v.handle)
	v.sys.handles.release(v.handle)
	v.freed = true
}

// View returns a read-only vector aliasing v's rows shifted up by
// rowOffset: bit i of the view is bit i+rowOffset of v. In the vertical
// layout this is the paper's free bit-shift (§2): reading element bits
// starting at row base+k divides every element by 2^k with zero DRAM
// commands — downstream operations simply read different row indices.
// The view must stay inside v's rows (rowOffset+width ≤ v.Width()).
func (v *Vector) View(rowOffset, width int) (*Vector, error) {
	if v.freed {
		return nil, errorf("view of freed vector")
	}
	if rowOffset < 0 || width < 1 || rowOffset+width > v.width {
		return nil, errorf("view rows [%d,%d) outside vector width %d", rowOffset, rowOffset+width, v.width)
	}
	base := v
	if v.view {
		base = v.base // views of views still hang off the row owner
	}
	nv := &Vector{sys: v.sys, n: v.n, width: width, view: true, base: base}
	for _, seg := range v.segs {
		nv.segs = append(nv.segs, segment{
			bank: seg.bank, sub: seg.sub,
			baseRow: seg.baseRow + rowOffset,
			lanes:   seg.lanes,
		})
	}
	h, err := v.sys.handles.alloc()
	if err != nil {
		return nil, err
	}
	nv.handle = h
	nv.serial = v.sys.nextSerial()
	v.sys.objects[nv.handle] = nv
	base.views = append(base.views, nv)
	return nv, nil
}

// Store writes horizontal data into the vector: the transposition unit
// converts each subarray's chunk to the vertical layout and the rows are
// written through the normal host path (so both the transposition and the
// DRAM writes are accounted).
func (v *Vector) Store(data []uint64) error {
	if v.freed {
		return errorf("store to freed vector")
	}
	if len(data) != v.n {
		return errorf("store: vector holds %d elements, data has %d", v.n, len(data))
	}
	off := 0
	return v.writeSegments(func(rows [][]uint64, seg segment) error {
		chunk := data[off : off+seg.lanes]
		off += seg.lanes
		return v.sys.tu.HToV(v.serial, rows, chunk, v.width)
	})
}

// storeSplat stores val into every element. It writes the rows Store
// of n copies of val would write and charges the transposition unit
// the same, but builds the rows without transposing: row i is all ones
// over the segment's lanes when bit i of val is set, else zero.
func (v *Vector) storeSplat(val uint64) error {
	if v.freed {
		return errorf("store to freed vector")
	}
	return v.writeSegments(func(rows [][]uint64, seg segment) error {
		return v.sys.tu.Splat(v.serial, rows, val, v.width, seg.lanes)
	})
}

// writeSegments has fill build each segment's vertical rows in the
// System's transposition scratch, then writes them through the host
// path.
func (v *Vector) writeSegments(fill func(rows [][]uint64, seg segment) error) error {
	rows := v.sys.transposeRows(v.width)
	for _, seg := range v.segs {
		if err := fill(rows, seg); err != nil {
			return err
		}
		sa := v.sys.mod.Subarray(seg.bank, seg.sub)
		for r := 0; r < v.width; r++ {
			sa.WriteRow(seg.baseRow+r, rows[r])
		}
	}
	return nil
}

// Load reads the vector back into horizontal form through the
// transposition unit.
func (v *Vector) Load() ([]uint64, error) {
	out := make([]uint64, v.n)
	if err := v.loadInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// loadInto is Load into out (v.n elements). The System's
// transposition scratch serves every segment's vertical gather, and
// each segment transposes straight into its slice of out.
func (v *Vector) loadInto(out []uint64) error {
	if v.freed {
		return errorf("load from freed vector")
	}
	rows := v.sys.transposeRows(v.width)
	off := 0
	for _, seg := range v.segs {
		sa := v.sys.mod.Subarray(seg.bank, seg.sub)
		for r := 0; r < v.width; r++ {
			sa.ReadRowInto(seg.baseRow+r, rows[r])
		}
		if err := v.sys.tu.VToH(v.serial, out[off:off+seg.lanes], rows, v.width); err != nil {
			return err
		}
		off += seg.lanes
	}
	return nil
}

// overlaps reports whether two segment-aligned vectors physically share
// any rows — true for the same vector, and for a View whose row window
// intersects the other's. Only meaningful after aligned() holds, which
// guarantees segment i of both vectors sits in the same subarray.
func (v *Vector) overlaps(o *Vector) bool {
	for i := range v.segs {
		vs, os := v.segs[i], o.segs[i]
		if vs.baseRow < os.baseRow+o.width && os.baseRow < vs.baseRow+v.width {
			return true
		}
	}
	return false
}

// aligned reports whether two vectors share segment placement (same
// subarray sequence), the precondition for in-DRAM computation.
func (v *Vector) aligned(o *Vector) bool {
	if len(v.segs) != len(o.segs) {
		return false
	}
	for i := range v.segs {
		if v.segs[i].bank != o.segs[i].bank || v.segs[i].sub != o.segs[i].sub || v.segs[i].lanes != o.segs[i].lanes {
			return false
		}
	}
	return true
}
