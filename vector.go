package simdram

import "sync"

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
	v := new(Vector)
	if err := s.allocVectorIn(v, nil, n, width, origin); err != nil {
		return nil, err
	}
	return v, nil
}

// allocVectorIn is allocVector into caller-provided storage: v, which
// it overwrites, and segs, an empty slice the segments are appended
// to (reallocated when its capacity falls short).
func (s *System) allocVectorIn(v *Vector, segs []segment, n, width, origin int) error {
	if n <= 0 {
		return errorf("vector size must be positive, have %d", n)
	}
	if width < 1 || width > 64 {
		return errorf("width %d out of range [1,64]", width)
	}
	cols := s.cfg.DRAM.Cols
	nSegs := (n + cols - 1) / cols
	*v = Vector{sys: s, n: n, width: width, segs: segs}
	remaining := n
	for i := 0; i < nSegs; i++ {
		bank, sub := s.segmentOrder(origin + i)
		base, ok := s.rows[bank][sub].alloc(width)
		if !ok {
			// Roll back what this vector already claimed.
			for _, seg := range v.segs {
				s.rows[seg.bank][seg.sub].release(seg.baseRow, width)
			}
			return shortagef("out of data rows in bank %d subarray %d (need %d rows)", bank, sub, width)
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
		return err
	}
	v.handle = h
	v.serial = s.nextSerial()
	s.bindHandle(v)
	return nil
}

// vectorSlab carves the Vectors of one served job, all of n elements
// placed from the first subarray, and their segments out of one array
// each. A Vector's address names it for as long as anything holds it,
// which is what lets a prepared program tell a live object from a
// freed one that a later allocation replaced (checkPrepared), so a
// slab is recycled (slabPool) only with its job's binding and the
// prepared program that binds its Vectors (see lowered.release).
type vectorSlab struct {
	sys  *System
	n    int
	per  int // segments per vector
	room int // vectors the slab holds
	vecs []Vector
	segs []segment
}

var slabPool = sync.Pool{New: func() any { return new(vectorSlab) }}

// newVectorSlab returns a slab with room for count vectors.
func newVectorSlab(sys *System, n, count int) *vectorSlab {
	sl := slabPool.Get().(*vectorSlab)
	sl.sys, sl.n, sl.room = sys, n, count
	sl.per = max((n+sys.cfg.DRAM.Cols-1)/sys.cfg.DRAM.Cols, 0)
	sl.vecs = grown(sl.vecs, count)
	sl.segs = grown(sl.segs, count*sl.per)
	return sl
}

// recycle returns the slab to slabPool once every Vector carved from
// it is freed and nothing holds one.
func (sl *vectorSlab) recycle() {
	clear(sl.vecs[:sl.room])
	*sl = vectorSlab{vecs: sl.vecs[:0], segs: sl.segs[:0]}
	slabPool.Put(sl)
}

// alloc is allocVector from the slab; past its room it allocates
// the vector on its own.
func (sl *vectorSlab) alloc(width int) (graphObj, error) {
	k := len(sl.vecs)
	if k == sl.room {
		v, err := sl.sys.allocVector(sl.n, width, 0)
		if err != nil {
			return nil, err
		}
		return v, nil
	}
	v := &sl.vecs[:k+1][k]
	if err := sl.sys.allocVectorIn(v, sl.segs[k*sl.per:k*sl.per:(k+1)*sl.per], sl.n, width, 0); err != nil {
		return nil, err
	}
	sl.vecs = sl.vecs[:k+1]
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
			vw.sys.unbindHandle(vw.handle)
			vw.sys.handles.release(vw.handle)
			vw.freed = true
		}
		v.views = nil
		for _, seg := range v.segs {
			v.sys.rows[seg.bank][seg.sub].release(seg.baseRow, v.width)
		}
	}
	v.sys.unbindHandle(v.handle)
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
	v.sys.bindHandle(nv)
	base.views = append(base.views, nv)
	return nv, nil
}

// Store writes horizontal data into the vector: the transposition unit
// converts each subarray's chunk to the vertical layout straight into
// the vector's rows, and each row is charged as a host write (so both
// the transposition and the DRAM writes are accounted).
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

// writeSegments has fill write each segment's vertical rows in place
// through the subarray's write view, then charges the segment's rows
// as host writes once fill has succeeded.
//
//simdram:zeroalloc
func (v *Vector) writeSegments(fill func(rows [][]uint64, seg segment) error) error {
	for _, seg := range v.segs {
		sa := v.sys.mod.Subarray(seg.bank, seg.sub)
		if err := fill(sa.WriteView(seg.baseRow, v.width), seg); err != nil {
			return err
		}
		sa.ChargeWrites(seg.baseRow, v.width)
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

// loadInto is Load into out (v.n elements): each segment's rows are
// charged as host reads and transposed straight out of the subarray
// into the segment's slice of out.
//
//simdram:zeroalloc
func (v *Vector) loadInto(out []uint64) error {
	if v.freed {
		return errorf("load from freed vector")
	}
	off := 0
	for _, seg := range v.segs {
		rows := v.sys.mod.Subarray(seg.bank, seg.sub).ReadView(seg.baseRow, v.width)
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
