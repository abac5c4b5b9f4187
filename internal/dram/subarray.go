package dram

import (
	"fmt"
	"math"
)

// Subarray is one DRAM subarray: a grid of rows × bitlines with sense
// amplifiers, a compute region of designated rows, and bit-exact command
// semantics. Each bitline is one SIMD lane.
//
// Row address map (data rows first, compute region at the top):
//
//	0 .. DataRows-1          operand and scratch rows
//	DataRows + i             T rows (triple-row-activatable), i < NumTRows
//	.. then                  DCC0, DCC0N, DCC1, DCC1N, ...
//	.. then                  C0 (all zeros), C1 (all ones)
type Subarray struct {
	cfg  *Config
	rows [][]uint64
	rm   RowMap // cfg's row map, for the per-command checks

	// phys is the row map of the view the kernel last ran (nil after
	// Exec): ExecView and Exec set it before each run, and only traced
	// commands read it, so the kernel loop carries no extra state.
	phys []int32

	Stats Stats

	// OnCommand, when set, observes every DRAM command the subarray
	// executes (command tracing, RowHammer monitoring, debuggers).
	OnCommand func(Command)
}

// CommandKind labels a traced DRAM command.
type CommandKind uint8

// Traced command kinds.
const (
	CmdAAP CommandKind = iota
	CmdAP
	CmdMajCopy
	CmdHostRead
	CmdHostWrite
)

func (k CommandKind) String() string {
	switch k {
	case CmdAAP:
		return "AAP"
	case CmdAP:
		return "AP"
	case CmdMajCopy:
		return "MAJCOPY"
	case CmdHostRead:
		return "RD"
	case CmdHostWrite:
		return "WR"
	default:
		return fmt.Sprintf("CMD(%d)", uint8(k))
	}
}

// Command is one traced DRAM command with physical row addresses.
type Command struct {
	Kind CommandKind
	Src  int    // AAP source / host row; -1 otherwise
	T    [3]int // AP/MajCopy TRA rows
	Dsts [3]int // AAP/MajCopy destinations
	NDst int
}

func (s *Subarray) trace(c Command) {
	if s.OnCommand != nil {
		s.OnCommand(c)
	}
}

// AddCommandHook subscribes fn to the subarray's command stream without
// displacing an existing OnCommand hook: if one is already installed,
// the two are composed and both observe every command, in installation
// order. This is how independent observers (the command-trace log, obs
// counters, RowHammer monitors) coexist on one subarray. A nil fn is
// ignored. Not safe to call concurrently with command execution.
func (s *Subarray) AddCommandHook(fn func(Command)) {
	if fn == nil {
		return
	}
	if prev := s.OnCommand; prev != nil {
		s.OnCommand = func(c Command) {
			prev(c)
			fn(c)
		}
		return
	}
	s.OnCommand = fn
}

// NewSubarray allocates a subarray per cfg, with control rows initialized.
func NewSubarray(cfg *Config) *Subarray {
	words := cfg.WordsPerRow()
	rows := make([][]uint64, cfg.RowsPerSubarray)
	backing := make([]uint64, cfg.RowsPerSubarray*words)
	for i := range rows {
		rows[i] = backing[i*words : (i+1)*words : (i+1)*words]
	}
	s := &Subarray{cfg: cfg, rows: rows, rm: cfg.RowMap()}
	for i := range s.rows[s.C1Row()] {
		s.rows[s.C1Row()][i] = ^uint64(0)
	}
	return s
}

// TRow returns the physical row index of designated compute row T[i].
func (s *Subarray) TRow(i int) int { return s.cfg.TRow(i) }

// DCCRow returns the physical row of dual-contact cell pair i's true row.
// Writing this row also makes the complement readable via DCCNRow(i).
func (s *Subarray) DCCRow(i int) int { return s.cfg.DCCRow(i) }

// DCCNRow returns the complement row of dual-contact cell pair i.
func (s *Subarray) DCCNRow(i int) int { return s.cfg.DCCNRow(i) }

// C0Row returns the all-zeros control row.
func (s *Subarray) C0Row() int { return s.cfg.C0Row() }

// C1Row returns the all-ones control row.
func (s *Subarray) C1Row() int { return s.cfg.C1Row() }

// RowMap returns the subarray's row address map, the geometry its
// commands are checked against.
func (s *Subarray) RowMap() RowMap { return s.rm }

func (s *Subarray) checkRow(row int) {
	if row < 0 || row >= s.cfg.RowsPerSubarray {
		panic(fmt.Sprintf("dram: row %d out of range [0,%d)", row, s.cfg.RowsPerSubarray))
	}
}

// ReadRowInto copies the row contents into dst via a normal host
// access, so bulk gather paths reuse one buffer. dst must hold exactly
// WordsPerRow words.
//
//simdram:zeroalloc
func (s *Subarray) ReadRowInto(row int, dst []uint64) {
	s.checkRow(row)
	if len(dst) != s.cfg.WordsPerRow() {
		panic(fmt.Sprintf("dram: ReadRowInto: want %d words, have %d", s.cfg.WordsPerRow(), len(dst)))
	}
	s.Stats.HostReads++
	s.Stats.EnergyPJ += s.cfg.Energy.RdPJ
	if s.OnCommand != nil {
		s.trace(Command{Kind: CmdHostRead, Src: row})
	}
	copy(dst, s.rows[row])
}

// WriteRow overwrites the row contents via a normal host access. Writing
// a DCC row updates its complement row (dual-contact cells expose both
// the true and negated bitline of the same cells).
func (s *Subarray) WriteRow(row int, data []uint64) {
	s.checkRow(row)
	if len(data) != s.cfg.WordsPerRow() {
		panic(fmt.Sprintf("dram: WriteRow: want %d words, have %d", s.cfg.WordsPerRow(), len(data)))
	}
	s.Stats.HostWrites++
	s.Stats.EnergyPJ += s.cfg.Energy.WrPJ
	if s.OnCommand != nil {
		s.trace(Command{Kind: CmdHostWrite, Src: row})
	}
	s.storeRow(row, data)
}

// PeekRow returns the row's backing storage without modeling a command
// or copying (test/debug). The slice aliases live subarray state: treat
// it as read-only and do not hold it across commands that may rewrite
// the row.
func (s *Subarray) PeekRow(row int) []uint64 {
	s.checkRow(row)
	return s.rows[row]
}

// Poke sets row contents without modeling a command (test/debug). DCC
// pairing is still honored.
func (s *Subarray) Poke(row int, data []uint64) {
	s.checkRow(row)
	s.storeRow(row, data)
}

// storeRow writes data into row, mirroring complements into DCC pairs.
func (s *Subarray) storeRow(row int, data []uint64) {
	if int32(row) >= s.rm.C0 {
		panic("dram: control rows are read-only")
	}
	if p := s.rm.partner(int32(row)); p != 0 {
		copyComplement(s.rows[row], s.rows[p], data)
		return
	}
	copy(s.rows[row], data)
}

// AAP executes ACTIVATE(src) → ACTIVATE(dst group) → PRECHARGE, copying
// the source row into every destination row. Destinations must either be
// a single row anywhere or a group of 2-3 rows inside the compute region
// (the special row decoder only supports multi-activation there).
//
//simdram:zeroalloc
func (s *Subarray) AAP(src int, dsts ...int) {
	s.exec1(Op{Kind: CmdAAP, Src: OpRow(src)}, dsts)
}

// AP executes a triple-row activation followed by precharge: the three
// rows charge-share on the bitlines, the sense amplifiers resolve the
// bitwise majority, and the restored value is written back into all three
// rows. All rows must be T rows of the compute region.
//
//simdram:zeroalloc
func (s *Subarray) AP(r0, r1, r2 int) {
	s.exec1(Op{Kind: CmdAP, T: [3]int32{OpRow(r0), OpRow(r1), OpRow(r2)}}, nil)
}

// MajCopy executes Ambit's fused compute-and-copy: ACTIVATE the TRA
// group (sense amplifiers resolve the majority, restored into the three
// T rows), then ACTIVATE the destination rows (overwriting them with the
// row-buffer value), then PRECHARGE. This is the 4th AAP of Ambit's
// canonical AND/OR sequence (AAP src1; AAP src2; AAP control; AAP
// TRA→dst). Latency matches an AAP.
//
//simdram:zeroalloc
func (s *Subarray) MajCopy(r0, r1, r2 int, dsts ...int) {
	s.exec1(Op{Kind: CmdMajCopy, T: [3]int32{OpRow(r0), OpRow(r1), OpRow(r2)}}, dsts)
}

// exec1 issues one command through the command kernel, after the
// CheckOp validation a resolved stream runs once per op at resolve
// time, as a one-step plan built on the stack. A command that fails
// validation panics.
//
//simdram:zeroalloc
func (s *Subarray) exec1(op Op, dsts []int) {
	op.NDst = uint8(min(len(dsts), math.MaxUint8))
	for j := 0; j < len(dsts) && j < len(op.Dsts); j++ {
		op.Dsts[j] = OpRow(dsts[j])
	}
	if err := s.rm.CheckOp(&op); err != nil {
		panic(err)
	}
	ops := [1]Op{op}
	var code [maxStep]int32
	n := op.encode(code[:])
	p := Plan{ops: ops[:], code: code[:n], counts: countOps(ops[:])}
	s.Exec(&p)
}

// InjectBitFlips XORs mask into the given row without any accounting —
// the fault-injection hook used by reliability tests. A flipped
// dual-contact cell flips both of its views, so flipping a DCC row also
// flips its complement row.
func (s *Subarray) InjectBitFlips(row int, mask []uint64) {
	s.checkRow(row)
	flip := func(r []uint64) {
		for i := range mask {
			if i < len(r) {
				r[i] ^= mask[i]
			}
		}
	}
	flip(s.rows[row])
	if p := s.rm.partner(int32(row)); p != 0 {
		flip(s.rows[p])
	}
}

// Config returns the subarray's configuration.
func (s *Subarray) Config() *Config { return s.cfg }
