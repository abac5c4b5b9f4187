package dram

import "math"

// aap, ap and majCopy issue one command each, the way
// internal/testoracle does for the other packages' tests (which dram's
// own tests cannot import): checked with CheckOp, run as a one-op plan.
func (s *Subarray) aap(src int, dsts ...int) {
	s.exec1(Op{Kind: CmdAAP, Src: OpRow(src)}, dsts)
}

func (s *Subarray) ap(r0, r1, r2 int) {
	s.exec1(Op{Kind: CmdAP, T: [3]int32{OpRow(r0), OpRow(r1), OpRow(r2)}}, nil)
}

func (s *Subarray) majCopy(r0, r1, r2 int, dsts ...int) {
	s.exec1(Op{Kind: CmdMajCopy, T: [3]int32{OpRow(r0), OpRow(r1), OpRow(r2)}}, dsts)
}

// exec1 checks op against the subarray's row map, panicking on a
// refused command, and runs it.
func (s *Subarray) exec1(op Op, dsts []int) {
	op.NDst = uint8(min(len(dsts), math.MaxUint8))
	for j := 0; j < len(dsts) && j < len(op.Dsts); j++ {
		op.Dsts[j] = OpRow(dsts[j])
	}
	if err := s.rm.CheckOp(&op); err != nil {
		panic(err)
	}
	p := s.rm.Plan([]Op{op}, false)
	s.Exec(&p)
}

// tRow, dccRow and dccNRow are the physical rows of T row i and of DCC
// pair i's true and complement rows; an index out of range panics.
func (c Config) tRow(i int) int {
	row, ok := c.RowMap().TRow(i)
	if !ok {
		panic("dram: T row out of range")
	}
	return int(row)
}

func (c Config) dccRow(i int) int { return c.dcc(i, false) }

func (c Config) dccNRow(i int) int { return c.dcc(i, true) }

func (c Config) dcc(i int, neg bool) int {
	row, ok := c.RowMap().DCCRow(i, neg)
	if !ok {
		panic("dram: DCC pair out of range")
	}
	return int(row)
}
