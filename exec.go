package simdram

import (
	"simdram/internal/ctrl"
	"simdram/internal/isa"
	"simdram/internal/ops"
	"simdram/internal/uprog"
)

// Run executes the named operation in DRAM: dst[i] = op(srcs[0][i],
// srcs[1][i], …). All vectors must have the same element count, the
// sources the same width, and dst the operation's destination width
// (Widths reports it). Sources and destination must be segment-aligned
// (allocate them with the same length on the same System).
func (s *System) Run(opName string, dst *Vector, srcs ...*Vector) (Stats, error) {
	d, err := ops.ByName(opName)
	if err != nil {
		return Stats{}, err
	}
	return s.RunOp(d, dst, srcs...)
}

// RunOp is Run with an explicit operation definition.
func (s *System) RunOp(d ops.Def, dst *Vector, srcs ...*Vector) (Stats, error) {
	p, segs, err := s.prepareOp(d, dst, srcs, nil)
	if err != nil {
		return Stats{}, err
	}
	// One operation is a one-job batch: the control unit has a single
	// run path, so serial and batched issue cannot drift apart.
	pb, err := s.cu.Prepare([]ctrl.Job{{Program: p, Segments: segs}})
	if err != nil {
		return Stats{}, err
	}
	st, _, err := s.cu.Run(pb, ctrl.RunOpts{})
	pb.Release()
	if err != nil {
		return Stats{}, err
	}
	return Stats{LatencyNs: st.BusyNs, EnergyPJ: st.EnergyPJ, Commands: st.Commands}, nil
}

// segBufs is flat storage the segments of a program's instructions,
// and their bindings' source bases, are carved from: one growing array
// each instead of two allocations per instruction. A carved slice is
// capacity-capped, and growing a buffer leaves earlier slices on the
// old array, so no instruction's segments ever move or alias another's.
type segBufs struct {
	segs  []ctrl.Segment
	bases []int
}

// prepareOp validates an operation invocation and resolves it to a
// μProgram plus the per-subarray segment bindings — everything the
// control unit needs to execute, shared by the serial (RunOp) and
// batched (ExecBatch) paths. The segments are carved from buf, or
// allocated when buf is nil.
func (s *System) prepareOp(d ops.Def, dst *Vector, srcs []*Vector, buf *segBufs) (*uprog.Program, []ctrl.Segment, error) {
	if len(srcs) == 0 {
		return nil, nil, errorf("%s: no sources", d.Name)
	}
	arity := d.EffArity(len(srcs))
	if len(srcs) != arity {
		return nil, nil, errorf("%s: needs %d sources, have %d", d.Name, arity, len(srcs))
	}
	width := srcs[0].width
	var wantWidths []int // nil: every source is width bits (ops.Def.SourceWidths)
	if d.SrcWidths != nil {
		wantWidths = d.SrcWidths(width)
	}
	for k, src := range srcs {
		if src.freed {
			return nil, nil, errorf("%s: source %d freed", d.Name, k)
		}
		want := width
		if wantWidths != nil {
			want = wantWidths[k]
		}
		if src.width != want {
			return nil, nil, errorf("%s: source %d width %d, operation expects %d", d.Name, k, src.width, want)
		}
		if src.n != dst.n {
			return nil, nil, errorf("%s: source %d has %d elements, dst %d", d.Name, k, src.n, dst.n)
		}
		if !dst.aligned(src) {
			return nil, nil, errorf("%s: source %d not segment-aligned with dst", d.Name, k)
		}
		if src.overlaps(dst) {
			// A pointer compare is not enough: a View of the destination
			// is a distinct *Vector yet physically shares its rows.
			return nil, nil, errorf("%s: destination must not alias a source (source %d overlaps its rows)", d.Name, k)
		}
	}
	if dst.freed {
		return nil, nil, errorf("%s: destination freed", d.Name)
	}
	if want := d.DstWidth(width); dst.width != want {
		return nil, nil, errorf("%s: destination width %d, operation produces %d", d.Name, dst.width, want)
	}
	p, err := s.cu.Program(d, width, len(srcs))
	if err != nil {
		return nil, nil, err
	}
	dataRows := s.cfg.DRAM.DataRows()
	if buf == nil {
		buf = &segBufs{}
	}
	s0 := len(buf.segs)
	for i := range dst.segs {
		bank, sub := dst.segs[i].bank, dst.segs[i].sub
		if s.rows[bank][sub].tailFree() < p.NumScratch {
			return nil, nil, errorf("%s: subarray (%d,%d) lacks %d scratch rows", d.Name, bank, sub, p.NumScratch)
		}
		b0 := len(buf.bases)
		for _, src := range srcs {
			buf.bases = append(buf.bases, src.segs[i].baseRow)
		}
		buf.segs = append(buf.segs, ctrl.Segment{Bank: bank, Sub: sub, Binding: uprog.Binding{
			SrcBase:     buf.bases[b0:len(buf.bases):len(buf.bases)],
			DstBase:     dst.segs[i].baseRow,
			ScratchBase: dataRows - p.NumScratch,
		}})
	}
	return p, buf.segs[s0:len(buf.segs):len(buf.segs)], nil
}

// Exec executes a decoded bbop instruction against the system's object
// table — the ISA-level entry point a compiler would target.
func (s *System) Exec(in isa.Instruction) (Stats, error) {
	if err := in.Validate(); err != nil {
		return Stats{}, err
	}
	if in.Op == isa.OpTrspInit {
		if _, ok := s.objects[in.Src[0]]; !ok {
			return Stats{}, errorf("bbop_trsp_init: unknown object %d", in.Src[0])
		}
		// Transposition is configured: in this implementation Store/Load
		// always route through the transposition unit, so trsp_init only
		// validates the object.
		return Stats{}, nil
	}
	var buf [3]*Vector
	d, dst, srcs, err := s.resolve(in, &buf)
	if err != nil {
		return Stats{}, err
	}
	return s.RunOp(d, dst, srcs...)
}

// resolve maps an operation instruction's opcode and object handles onto
// the operation definition and the live vectors they name; the sources
// are returned in buf.
func (s *System) resolve(in isa.Instruction, buf *[3]*Vector) (ops.Def, *Vector, []*Vector, error) {
	code, err := in.Op.ToOp()
	if err != nil {
		return ops.Def{}, nil, nil, err
	}
	d, err := ops.ByCode(code)
	if err != nil {
		return ops.Def{}, nil, nil, err
	}
	dst, ok := s.objects[in.Dst]
	if !ok {
		return ops.Def{}, nil, nil, errorf("bbop: unknown destination object %d", in.Dst)
	}
	arity := d.EffArity(int(in.N))
	if arity > 3 {
		return ops.Def{}, nil, nil, errorf("bbop: ISA encodes at most 3 source objects, operation needs %d", arity)
	}
	srcs := buf[:arity]
	for k := 0; k < arity; k++ {
		src, ok := s.objects[in.Src[k]]
		if !ok {
			return ops.Def{}, nil, nil, errorf("bbop: unknown source object %d", in.Src[k])
		}
		srcs[k] = src
	}
	return d, dst, srcs, nil
}

// Widths returns the source and destination element widths the named
// operation uses for a given source width.
func Widths(opName string, width int) (src, dst int, err error) {
	d, err := ops.ByName(opName)
	if err != nil {
		return 0, 0, err
	}
	return width, d.DstWidth(width), nil
}

// Golden computes the operation's reference result for one element —
// exposed so applications can verify in-DRAM results.
func Golden(opName string, width int, args ...uint64) (uint64, error) {
	d, err := ops.ByName(opName)
	if err != nil {
		return 0, err
	}
	if got, want := len(args), d.EffArity(len(args)); got != want {
		return 0, errorf("%s: needs %d arguments, have %d", opName, want, got)
	}
	return d.Golden(args, width), nil
}
