package dram

import (
	"fmt"
	"math"
)

// Op is one in-DRAM command in the form the command kernel executes:
// rows as int32 (physical, or virtual under a View), destinations
// inline, and the fields CheckOp derives once so RowMap.Plan never
// re-derives them — each destination's DCC partner and the command's
// energy class. Templates and resolved streams hold one Op per
// command, so the struct is kept at 44 bytes.
type Op struct {
	Kind   CommandKind // CmdAAP, CmdAP or CmdMajCopy
	NDst   uint8       // live entries of Dsts (AAP / MajCopy)
	energy uint8       // index into Energy.opTable
	Src    int32       // AAP source row; -1 otherwise
	T      [3]int32    // AP / MajCopy TRA rows
	Dsts   [3]int32    // AAP / MajCopy destination rows
	comp   [3]int32    // DCC partner of each destination; 0 when none
}

// Energy classes of Op, indexing Energy.opTable.
const (
	energyAAP = iota
	energyAAPMulti
	energyAP
	energyMajCopy
	numEnergyClasses
)

// opTable returns the per-command energy of each Op energy class from
// the Energy formulas, so charging from the table adds exactly the
// values calling the formulas per command would.
func (e Energy) opTable() [numEnergyClasses]float64 {
	return [numEnergyClasses]float64{
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
// destination's DCC partner and the energy class. Unused row slots are
// normalized (Src -1 off AAP, zero T and destination slots), so the
// traced Command of an op depends only on its live fields.
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
		op.comp[j] = m.partner(d)
	}
	return nil
}

// countOps returns the command counters executing ops adds to Stats.
// EnergyPJ stays zero: the kernel charges energy per op, in order.
func countOps(ops []Op) Stats {
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

// Exec is the command kernel: it runs p, whose ops passed CheckOp
// against this subarray's RowMap. Nothing is re-validated per command
// — an unchecked op can clobber a control row, though no step reaches
// past the subarray: a plan that names a row outside it panics before
// any step runs. After the plan's steps have run, OnCommand, when set,
// sees each command in order (hooks observe the commands, not
// intermediate row contents) while each op's energy is charged in
// stream order. Without a hook the energy is charged once, as each
// class's op count times its per-command energy; with integral
// per-command energies, as the defaults are, both sums are exact and
// so bit-identical. The plan's command counters are added at the end.
//
//simdram:zeroalloc
func (s *Subarray) Exec(p *Plan) {
	s.phys = nil
	s.exec(s.rows, p)
}

// View binds a virtual row space onto one subarray: virtual row v is
// the subarray's physical row phys[v]. Ops checked once against a
// virtual geometry — a relocatable μProgram template — run on any
// placement through a view, with no per-placement copy or check. A
// view shares the subarray's row storage and is immutable once built.
//
// Invariant: every entry of a view's row table is one of its
// subarray's rows, so every entry has the subarray's row width. The
// step loop is picked by that width, and so needs no per-run check of
// a row's length; only NewView fills the table.
type View struct {
	sa   *Subarray
	rows [][]uint64 // virtual row → the physical row's storage
	phys []int32    // virtual row → physical row, for traced commands
}

// NewView returns the view of s whose virtual row v is physical row
// phys[v], with rows, as long as phys, as its row table; the view
// keeps both, so several views can share one slab, which must not
// change while a view over it runs. Several virtual rows may name one
// physical row. NewView panics if a row lies outside the subarray.
func (s *Subarray) NewView(phys []int32, rows [][]uint64) View {
	if len(rows) != len(phys) {
		panic("dram: view row table and row map differ in length")
	}
	for i, r := range phys {
		s.checkRow(int(r))
		rows[i] = s.rows[r]
	}
	return View{sa: s, rows: rows, phys: phys}
}

// ExecView is Exec through a view: p's ops, checked against the view's
// virtual geometry, address the view's virtual rows. Traced commands
// name the physical rows. Running a view of another subarray panics.
//
//simdram:zeroalloc
func (s *Subarray) ExecView(v *View, p *Plan) {
	if v.sa != s {
		panic("dram: view of a different subarray")
	}
	s.phys = v.phys
	s.exec(v.rows, p)
}

// exec is the kernel of Exec and ExecView over a row table: it runs
// p's steps, then charges p's energy and counters. Its one check is
// that rows holds every row p names; it panics, before any store, if
// not. Row width alone picks the step loop: 4-word (256-column) rows
// have their own, on AVX2 where the CPU has it, which checks nothing
// (see Plan and View); wider rows run the row loops, on AVX-512 or
// AVX2 where the CPU has them.
//
//simdram:zeroalloc
func (s *Subarray) exec(rows [][]uint64, p *Plan) {
	if p.nrows > len(rows) {
		panic("dram: plan names a row outside the row table")
	}
	if len(s.rows[0]) == narrowWords {
		if useVector {
			steps4Vec(rows, p.code)
		} else {
			steps4(rows, p.code)
		}
	} else {
		steps(rows, p.code)
	}
	energy := s.cfg.Energy.opTable()
	e, hook := s.Stats.EnergyPJ, s.OnCommand
	if hook == nil {
		for c, n := range p.classes {
			e += float64(n) * energy[c]
		}
	} else {
		for i := range p.ops {
			op := &p.ops[i]
			e += energy[op.energy]
			s.Stats.EnergyPJ = e
			hook(op.command(s.phys))
		}
	}
	s.Stats.EnergyPJ = e
	s.Stats.Add(p.counts)
}

// steps runs the encoded steps code over rows of any width with the
// row loops: the first output gets the step's value, and every other
// output is filled from it.
//
//simdram:zeroalloc
func steps(rows [][]uint64, code []int32) {
	for c := code; len(c) > 0; {
		h := c[0]
		var in []int32
		if h&stepMaj != 0 {
			in, c = c[1:4], c[4:]
		} else {
			in, c = c[1:2], c[2:]
		}
		o := c[:h>>1]
		c = c[h>>1:]
		d, m := rows[rowOf(o[0])], mask(o[0])
		if len(in) == 3 {
			majRow(d, rows[rowOf(in[0])], rows[rowOf(in[1])], rows[rowOf(in[2])], mask(in[0]), mask(in[1]), mask(in[2]), m)
		} else {
			xorRow(d, rows[rowOf(in[0])], mask(in[0])^m)
		}
		for _, x := range o[1:] {
			xorRow(rows[rowOf(x)], d, m^mask(x))
		}
	}
}

// narrowWords is the row width, in words, that steps4 runs.
const narrowWords = 4

// steps4 is steps for rows of exactly narrowWords words. It computes a
// step's value in registers, before any store, and stores it, with
// each output's polarity, to every output row: no row loop, no copy,
// and no re-read of a stored row. Computing first keeps a step that
// writes one of its own inputs correct.
//
//simdram:zeroalloc
func steps4(rows [][]uint64, code []int32) {
	for c := code; len(c) > 0; {
		h := c[0]
		var v0, v1, v2, v3 uint64
		if h&stepMaj != 0 {
			x, y, z := (*[4]uint64)(rows[rowOf(c[1])]), (*[4]uint64)(rows[rowOf(c[2])]), (*[4]uint64)(rows[rowOf(c[3])])
			mx, my, mz := mask(c[1]), mask(c[2]), mask(c[3])
			v0 = maj(x[0]^mx, y[0]^my, z[0]^mz)
			v1 = maj(x[1]^mx, y[1]^my, z[1]^mz)
			v2 = maj(x[2]^mx, y[2]^my, z[2]^mz)
			v3 = maj(x[3]^mx, y[3]^my, z[3]^mz)
			c = c[4:]
		} else {
			x, m := (*[4]uint64)(rows[rowOf(c[1])]), mask(c[1])
			v0, v1, v2, v3 = x[0]^m, x[1]^m, x[2]^m, x[3]^m
			c = c[2:]
		}
		o := c[:h>>1]
		c = c[h>>1:]
		for _, x := range o {
			d, m := (*[4]uint64)(rows[rowOf(x)]), mask(x)
			d[0], d[1], d[2], d[3] = v0^m, v1^m, v2^m, v3^m
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
