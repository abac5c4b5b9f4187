package dram

import "fmt"

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
	for i := range s.rows[cfg.C1Row()] {
		s.rows[cfg.C1Row()][i] = ^uint64(0)
	}
	return s
}

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
//
//simdram:testapi reads the unexported row storage with no host access modeled
func (s *Subarray) PeekRow(row int) []uint64 {
	s.checkRow(row)
	return s.rows[row]
}

// Poke sets row contents without modeling a command (test/debug). DCC
// pairing is still honored.
//
//simdram:testapi writes the unexported row storage with no host access modeled
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

// InjectBitFlips XORs mask into the given row without any accounting —
// the fault-injection hook used by reliability tests. A flipped
// dual-contact cell flips both of its views, so flipping a DCC row also
// flips its complement row.
//
//simdram:testapi fault injection into the unexported row storage, for the reliability tests
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
