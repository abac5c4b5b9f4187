package dram

import (
	"fmt"
	"math"
)

// Op is one in-DRAM command in the form the command kernel executes:
// rows as int32 (physical, or virtual under a View), destinations
// inline, and the fields CheckOp derives once so the kernel never
// re-derives them — each destination's DCC partner, whether an AAP
// must snapshot its source, and the command's energy class. Templates
// and resolved streams hold one Op per command, so the struct is kept
// at 44 bytes.
type Op struct {
	Kind     CommandKind // CmdAAP, CmdAP or CmdMajCopy
	NDst     uint8       // live entries of Dsts (AAP / MajCopy)
	snapshot bool        // AAP source is a destination or a destination's DCC partner
	energy   uint8       // index into Energy.opTable
	Src      int32       // AAP source row; -1 otherwise
	T        [3]int32    // AP / MajCopy TRA rows
	Dsts     [3]int32    // AAP / MajCopy destination rows
	comp     [3]int32    // DCC partner of each destination; 0 when none
}

// Energy classes of Op, indexing Energy.opTable.
const (
	energyAAP = iota
	energyAAPMulti
	energyAP
	energyMajCopy
)

// opTable returns the per-command energy of each Op energy class from
// the Energy formulas, so charging from the table adds exactly the
// values calling the formulas per command would.
func (e Energy) opTable() [4]float64 {
	return [4]float64{
		energyAAP:      e.AAPEnergy(1),
		energyAAPMulti: e.AAPEnergy(2),
		energyAP:       e.APEnergy(),
		energyMajCopy:  e.MajCopyEnergy(),
	}
}

// command returns op in its traced form. phys, when non-nil, maps the
// op's rows to physical rows (see View); unused slots stay as CheckOp
// normalized them.
func (op *Op) command(phys []int32) Command {
	row := func(r int32) int {
		if phys == nil {
			return int(r)
		}
		return int(phys[r])
	}
	c := Command{Kind: op.Kind, Src: int(op.Src), NDst: int(op.NDst)}
	if op.Kind == CmdAAP {
		c.Src = row(op.Src)
	} else {
		c.T = [3]int{row(op.T[0]), row(op.T[1]), row(op.T[2])}
	}
	for j := 0; j < int(op.NDst); j++ {
		c.Dsts[j] = row(op.Dsts[j])
	}
	return c
}

// RowMap is a geometry's row address map reduced to integer bounds, so
// classifying a row costs a compare rather than a walk over the Config:
//
//	[0, T)      data rows
//	[T, DCC)    T rows
//	[DCC, C0)   DCC pairs, true row first
//	C0, C0+1    control rows C0 and C1
type RowMap struct{ T, DCC, C0 int32 }

// RowMap returns the geometry's row address map.
func (c *Config) RowMap() RowMap {
	t := c.DataRows()
	return RowMap{T: int32(t), DCC: int32(t + c.NumTRows), C0: int32(c.C0Row())}
}

// Rows returns the number of rows in the subarray.
func (m RowMap) Rows() int32 { return m.C0 + 2 }

// TRow returns the physical row of T row i; ok is false when the
// geometry has no T row i.
func (m RowMap) TRow(i int) (row int32, ok bool) {
	if i < 0 || i >= int(m.DCC-m.T) {
		return 0, false
	}
	return m.T + int32(i), true
}

// DCCRow returns the physical row of DCC pair i's true row, or of its
// complement row when neg is set; ok is false when the geometry has no
// pair i.
func (m RowMap) DCCRow(i int, neg bool) (row int32, ok bool) {
	if i < 0 || i >= int(m.C0-m.DCC)/2 {
		return 0, false
	}
	row = m.DCC + 2*int32(i)
	if neg {
		row++
	}
	return row, true
}

// partner returns the other row of row's DCC pair, or 0 when row is not
// a DCC row (row 0 is always a data row, so 0 is never a partner).
func (m RowMap) partner(row int32) int32 {
	if row < m.DCC || row >= m.C0 {
		return 0
	}
	return m.DCC + ((row - m.DCC) ^ 1)
}

// CheckOp validates op against the geometry — every condition the
// command kernel relies on — and fills in its derived fields: each
// destination's DCC partner, the AAP source-snapshot flag and the
// energy class. Unused row slots are normalized (Src -1 off AAP, zero
// T and destination slots), so the traced Command of an op depends only
// on its live fields.
//
// Rows must lie in the subarray; AP and MajCopy rows must be three
// distinct T rows; AAP and MajCopy write 1-3 destinations, never a
// control row, and a multi-row AAP destination group lies in the
// compute region (the special row decoder activates several rows only
// there).
func (m RowMap) CheckOp(op *Op) error {
	rows := m.Rows()
	switch op.Kind {
	case CmdAAP:
		if op.Src < 0 || op.Src >= rows {
			return fmt.Errorf("dram: AAP source row %d out of range [0,%d)", op.Src, rows)
		}
		op.T = [3]int32{}
		op.energy = energyAAP
		if op.NDst > 1 {
			op.energy = energyAAPMulti
		}
	case CmdAP, CmdMajCopy:
		for _, r := range op.T {
			if r < m.T || r >= m.DCC {
				return fmt.Errorf("dram: %v row %d is not a T row", op.Kind, r)
			}
		}
		if op.T[0] == op.T[1] || op.T[0] == op.T[2] || op.T[1] == op.T[2] {
			return fmt.Errorf("dram: %v rows %v must be distinct", op.Kind, op.T)
		}
		op.Src = -1
		op.energy = energyMajCopy
		if op.Kind == CmdAP {
			op.energy = energyAP
			op.NDst = 0
		}
	default:
		return fmt.Errorf("dram: %v is not an in-DRAM command", op.Kind)
	}
	if op.Kind != CmdAP && (op.NDst < 1 || op.NDst > 3) {
		return fmt.Errorf("dram: %v needs 1-3 destination rows, have %d", op.Kind, op.NDst)
	}
	op.snapshot = false
	for j := range op.Dsts {
		if j >= int(op.NDst) {
			op.Dsts[j], op.comp[j] = 0, 0
			continue
		}
		d := op.Dsts[j]
		switch {
		case d < 0 || d >= rows:
			return fmt.Errorf("dram: %v destination row %d out of range [0,%d)", op.Kind, d, rows)
		case d >= m.C0:
			return fmt.Errorf("dram: %v writes control row %d; control rows are read-only", op.Kind, d)
		case op.Kind == CmdAAP && op.NDst > 1 && d < m.T:
			return fmt.Errorf("dram: multi-row AAP destination %d outside the compute region", d)
		}
		p := m.partner(d)
		op.comp[j] = p
		if op.Kind == CmdAAP && (op.Src == d || (p != 0 && op.Src == p)) {
			op.snapshot = true
		}
	}
	return nil
}

// CountOps returns the command counters executing ops adds to Stats.
// EnergyPJ stays zero: the kernel charges energy per op, in order.
func CountOps(ops []Op) Stats {
	var s Stats
	for i := range ops {
		switch ops[i].Kind {
		case CmdAAP:
			s.AAPs++
			s.Activates += 2
		case CmdAP:
			s.APs++
			s.Activates++
		case CmdMajCopy:
			s.MajCopies++
			s.Activates += 2
		}
		s.Precharges++
	}
	return s
}

// OpRow narrows a row index to an Op row field; indices int32 cannot
// hold become -1, which CheckOp rejects as out of range.
func OpRow(r int) int32 {
	if r < 0 || r > math.MaxInt32 {
		return -1
	}
	return int32(r)
}

// Exec is the command kernel: it executes ops, which must have passed
// CheckOp against this subarray's RowMap, in order. Nothing is
// re-validated per command — an unchecked op can clobber a control
// row, though Go's bounds checks still stop any row index outside the
// subarray. Energy is charged per op in stream order, so the float sum
// matches issuing the commands one at a time; counts, normally
// CountOps(ops) taken once when the ops were checked, is added at the
// end. OnCommand, when set, sees each command as it completes.
//
//simdram:zeroalloc
func (s *Subarray) Exec(ops []Op, counts Stats) {
	s.phys = nil
	s.exec(s.rows, ops, counts)
}

// View binds a virtual row space onto one subarray: virtual row v is
// the subarray's physical row phys[v]. Ops checked once against a
// virtual geometry — a relocatable μProgram template — run on any
// placement through a view, with no per-placement copy or check. A
// view shares the subarray's row storage and is immutable once built.
type View struct {
	sa   *Subarray
	rows [][]uint64 // virtual row → the physical row's storage
	phys []int32    // virtual row → physical row, for traced commands
}

// NewView returns the view of s whose virtual row v is physical row
// phys[v]; the view keeps phys. Several virtual rows may name one
// physical row. NewView panics if a row lies outside the subarray.
func (s *Subarray) NewView(phys []int32) View {
	v := View{sa: s, rows: make([][]uint64, len(phys)), phys: phys}
	for i, r := range phys {
		s.checkRow(int(r))
		v.rows[i] = s.rows[r]
	}
	return v
}

// ExecView is Exec through a view: ops, checked against the view's
// virtual geometry, address the view's virtual rows. Traced commands
// name the physical rows. Running a view of another subarray panics.
//
//simdram:zeroalloc
func (s *Subarray) ExecView(v *View, ops []Op, counts Stats) {
	if v.sa != s {
		panic("dram: view of a different subarray")
	}
	s.phys = v.phys
	s.exec(v.rows, ops, counts)
}

// exec is the kernel loop of Exec and ExecView over a row table.
//
//simdram:zeroalloc
func (s *Subarray) exec(rows [][]uint64, ops []Op, counts Stats) {
	energy := s.cfg.Energy.opTable()
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case CmdAAP:
			// The first activation latches src into the sense
			// amplifiers; the second overwrites the destinations with
			// the latched value. Only when a destination is src or src's
			// DCC partner can writing it change what later destinations
			// read, so only then is src staged through scratch.
			src := rows[op.Src]
			if op.snapshot {
				copy(s.scratch, src)
				src = s.scratch
			}
			store(rows, op, src)
		case CmdAP:
			maj3(rows[op.T[0]], rows[op.T[1]], rows[op.T[2]])
		case CmdMajCopy:
			// The destinations read the row-buffer value, which the TRA
			// restored into every T row. A T row has no DCC partner, so
			// writing the destinations cannot change t0 and it needs no
			// staging.
			t0 := rows[op.T[0]]
			maj3(t0, rows[op.T[1]], rows[op.T[2]])
			store(rows, op, t0)
		}
		s.Stats.EnergyPJ += energy[op.energy]
		if s.OnCommand != nil {
			s.OnCommand(op.command(s.phys))
		}
	}
	s.Stats.Add(counts)
}

// store writes v into op's destinations in order; a DCC destination's
// complement row is written in the same pass.
func store(rows [][]uint64, op *Op, v []uint64) {
	for j := 0; j < int(op.NDst); j++ {
		d := rows[op.Dsts[j]]
		if c := op.comp[j]; c != 0 {
			copyComplement(d, rows[c], v)
		} else {
			copy(d, v)
		}
	}
}

// copyComplement sets dst to v and comp to its bitwise complement.
func copyComplement(dst, comp, v []uint64) {
	dst, comp = dst[:len(v)], comp[:len(v)]
	for i, w := range v {
		dst[i] = w
		comp[i] = ^w
	}
}

// maj3 models a triple-row activation: the sense amplifiers resolve
// the bitwise majority of rows a, b and c and restore it into all
// three. The loop is unrolled 4× over full-slice windows, which leaves
// the compiler one bounds check per four words (on a's window) and none
// in the tail.
func maj3(a, b, c []uint64) {
	n := len(a)
	b, c = b[:n], c[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		x, y, z := a[i:i+4:i+4], b[i:i+4:i+4], c[i:i+4:i+4]
		m0 := (x[0] & y[0]) | (z[0] & (x[0] | y[0]))
		m1 := (x[1] & y[1]) | (z[1] & (x[1] | y[1]))
		m2 := (x[2] & y[2]) | (z[2] & (x[2] | y[2]))
		m3 := (x[3] & y[3]) | (z[3] & (x[3] | y[3]))
		x[0], x[1], x[2], x[3] = m0, m1, m2, m3
		y[0], y[1], y[2], y[3] = m0, m1, m2, m3
		z[0], z[1], z[2], z[3] = m0, m1, m2, m3
	}
	a, b, c = a[i:], b[i:], c[i:]
	for k := range a {
		m := (a[k] & b[k]) | (c[k] & (a[k] | b[k]))
		a[k], b[k], c[k] = m, m, m
	}
}
