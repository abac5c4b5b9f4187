package dram

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// refSubarray is a deliberately naive per-word model of AAP, AP and
// MajCopy — the oracle the command kernel is checked against now that
// the command methods and resolved streams share that kernel. It
// stages every command's row-buffer value, writes each destination
// word by word, and mirrors DCC rows explicitly.
type refSubarray struct {
	cfg   Config
	rows  [][]uint64
	stats Stats
	trace []Command
}

func newRef(s *Subarray) *refSubarray {
	r := &refSubarray{cfg: *s.cfg, rows: make([][]uint64, len(s.rows))}
	for i, row := range s.rows {
		r.rows[i] = append([]uint64(nil), row...)
	}
	return r
}

// refPartner returns row's DCC partner and whether row is a DCC row,
// from the Config's pair accessors.
func (r *refSubarray) refPartner(row int) (int, bool) {
	for i := 0; i < r.cfg.NumDCCPairs; i++ {
		switch row {
		case r.cfg.dccRow(i):
			return r.cfg.dccNRow(i), true
		case r.cfg.dccNRow(i):
			return r.cfg.dccRow(i), true
		}
	}
	return 0, false
}

func (r *refSubarray) write(dsts []int, v []uint64) {
	for _, d := range dsts {
		p, dcc := r.refPartner(d)
		for w := range v {
			r.rows[d][w] = v[w]
			if dcc {
				r.rows[p][w] = ^v[w]
			}
		}
	}
}

func (r *refSubarray) maj(t [3]int) []uint64 {
	m := make([]uint64, len(r.rows[t[0]]))
	for w := range m {
		a, b, c := r.rows[t[0]][w], r.rows[t[1]][w], r.rows[t[2]][w]
		m[w] = (a & b) | (a & c) | (b & c)
		r.rows[t[0]][w], r.rows[t[1]][w], r.rows[t[2]][w] = m[w], m[w], m[w]
	}
	return m
}

func (r *refSubarray) aap(src int, dsts []int) {
	r.write(dsts, append([]uint64(nil), r.rows[src]...))
	r.stats.AAPs++
	r.stats.Activates += 2
	r.stats.Precharges++
	r.stats.EnergyPJ += r.cfg.Energy.AAPEnergy(len(dsts))
	c := Command{Kind: CmdAAP, Src: src, NDst: len(dsts)}
	copy(c.Dsts[:], dsts)
	r.trace = append(r.trace, c)
}

func (r *refSubarray) ap(t [3]int) {
	r.maj(t)
	r.stats.APs++
	r.stats.Activates++
	r.stats.Precharges++
	r.stats.EnergyPJ += r.cfg.Energy.APEnergy()
	r.trace = append(r.trace, Command{Kind: CmdAP, Src: -1, T: t})
}

func (r *refSubarray) majCopy(t [3]int, dsts []int) {
	r.write(dsts, r.maj(t))
	r.stats.MajCopies++
	r.stats.Activates += 2
	r.stats.Precharges++
	r.stats.EnergyPJ += r.cfg.Energy.MajCopyEnergy()
	c := Command{Kind: CmdMajCopy, Src: -1, T: t, NDst: len(dsts)}
	copy(c.Dsts[:], dsts)
	r.trace = append(r.trace, c)
}

// randomOps builds a valid command stream biased toward the cases the
// kernel and the plan lowering special-case: an AAP whose source is a
// destination's DCC partner (or the destination itself), identity
// AAPs, multi-row AAPs into T rows, MajCopy into DCC rows, copy-of-copy
// and DCC negation chains, and AAPs into T rows feeding an AP.
func randomOps(rng *rand.Rand, cfg *Config, n int) []Op {
	rm := cfg.RowMap()
	anyRow := func() int32 { return rng.Int31n(rm.Rows()) }
	writable := func() int32 { return rng.Int31n(rm.C0) }
	compute := func() int32 { return rm.T + rng.Int31n(rm.C0-rm.T) }
	dcc := func() int32 { return rm.DCC + rng.Int31n(rm.C0-rm.DCC) }
	tRows := func() [3]int32 {
		p := rng.Perm(int(rm.DCC - rm.T))
		return [3]int32{rm.T + int32(p[0]), rm.T + int32(p[1]), rm.T + int32(p[2])}
	}
	aap := func(src int32, dsts ...int32) Op {
		op := Op{Kind: CmdAAP, Src: src, NDst: uint8(len(dsts))}
		copy(op.Dsts[:], dsts)
		return op
	}
	ops := make([]Op, 0, n+4)
	for len(ops) < n {
		var op Op
		switch rng.Intn(10) {
		case 0: // single-destination copy anywhere
			op = aap(anyRow(), writable())
		case 1: // multi-destination copy into the compute region
			op.Kind, op.Src, op.NDst = CmdAAP, anyRow(), uint8(2+rng.Intn(2))
			for j := 0; j < int(op.NDst); j++ {
				op.Dsts[j] = compute()
			}
		case 2: // source aliases a destination's DCC partner, or the destination
			d := dcc()
			src := rm.partner(d)
			if rng.Intn(3) == 0 {
				src = d
			}
			op.Kind, op.Src, op.NDst = CmdAAP, src, uint8(1+rng.Intn(3))
			op.Dsts[0] = d
			for j := 1; j < int(op.NDst); j++ {
				op.Dsts[j] = compute()
			}
			k := rng.Intn(int(op.NDst))
			op.Dsts[0], op.Dsts[k] = op.Dsts[k], op.Dsts[0]
		case 3:
			op = Op{Kind: CmdAP, T: tRows()}
		case 4: // MajCopy into DCC rows
			op.Kind, op.T, op.NDst = CmdMajCopy, tRows(), uint8(1+rng.Intn(3))
			for j := 0; j < int(op.NDst); j++ {
				op.Dsts[j] = dcc()
			}
		case 5:
			op.Kind, op.T, op.NDst = CmdMajCopy, tRows(), uint8(1+rng.Intn(3))
			for j := 0; j < int(op.NDst); j++ {
				op.Dsts[j] = writable()
			}
		case 6: // identity AAP
			r := writable()
			op = aap(r, r)
		case 7: // copy-of-copy chain
			r := anyRow()
			for k := rng.Intn(3); k > 0; k-- {
				d := writable()
				ops = append(ops, aap(r, d))
				r = d
			}
			op = aap(r, writable())
		case 8: // DCC negation chain: every hop reads the partner of the last write
			r := anyRow()
			for k := rng.Intn(3); k > 0; k-- {
				d := dcc()
				ops = append(ops, aap(r, d))
				r = rm.partner(d)
			}
			op = aap(r, writable())
		default: // AAPs into T rows, then a triple-row activation on them
			t := tRows()
			for _, r := range t {
				ops = append(ops, aap(anyRow(), r))
			}
			op = Op{Kind: CmdAP, T: t}
			if rng.Intn(2) == 0 {
				op = Op{Kind: CmdMajCopy, T: t, NDst: 1, Dsts: [3]int32{writable()}}
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// TestKernelMatchesReference drives random command streams through the
// kernel four ways — one Exec of the lowered plan (the resolved stream
// path), one Exec of the unlowered plan, the AAP/AP/MajCopy methods one
// command at a time, and the naive reference — and requires identical
// rows, Stats (EnergyPJ bit-exact) and command traces. It runs with the
// vector loops forced off and, where the CPU has them, on: the AVX2
// loops, then the AVX-512 step loop. Row widths cover the pure-Go row
// loops (64 and 192 columns; one masked AVX-512 block), the 4-word
// step loop and its vector form (256), a masked AVX-512 block alone
// (320: 5 words), exactly the vector row-loop threshold (512: one
// whole AVX-512 block), a vector body with a one-word tail (576: one
// whole AVX-512 block and a masked one, or two AVX2 blocks), a whole
// block and a masked one of 7 words (960: 15 words) and wide rows
// (8192).
func TestKernelMatchesReference(t *testing.T) {
	for _, cols := range []int{64, 192, 256, 320, 512, 576, 960, 8192} {
		t.Run(fmt.Sprintf("cols=%d", cols), func(t *testing.T) {
			t.Run("vector=false", func(t *testing.T) { checkKernelLoops(t, cols, LoopSettings[0]) })
			t.Run("vector=true", func(t *testing.T) {
				for _, ls := range LoopSettings[1:] {
					t.Run(ls.Name, func(t *testing.T) { checkKernelLoops(t, cols, ls) })
				}
			})
		})
	}
}

// checkKernelLoops runs TestKernelMatchesReference's trials at cols
// columns on the loops ls selects, or skips where the CPU lacks them.
func checkKernelLoops(t *testing.T, cols int, ls LoopSetting) {
	restore, ok := ls.Set()
	if !ok {
		t.Skipf("no %s loops on this CPU", ls.Name)
	}
	defer restore()
	cfg := TestConfig()
	cfg.Cols = cols
	rng := rand.New(rand.NewSource(int64(cols)))
	for trial := 0; trial < 8; trial++ {
		checkKernelTrial(t, rng, &cfg, trial)
	}
}

// checkKernelTrial runs one random stream of TestKernelMatchesReference.
func checkKernelTrial(t *testing.T, rng *rand.Rand, cfg *Config, trial int) {
	t.Helper()
	ops := randomOps(rng, cfg, 200)
	sas := []*Subarray{NewSubarray(cfg), NewSubarray(cfg), NewSubarray(cfg)}
	names := []string{"lowered plan", "unlowered plan", "per-command"}
	for row := 0; row < cfg.C0Row(); row++ {
		for w := range sas[0].rows[row] {
			v := rng.Uint64()
			for _, sa := range sas {
				sa.rows[row][w] = v
			}
		}
	}
	ref := newRef(sas[0])
	traces := make([][]Command, len(sas))
	for i, sa := range sas {
		sa.OnCommand = func(c Command) { traces[i] = append(traces[i], c) }
	}

	rm := sas[0].RowMap()
	single := sas[2]
	for i := range ops {
		op := ops[i]
		dsts := make([]int, op.NDst)
		for j := range dsts {
			dsts[j] = int(op.Dsts[j])
		}
		tr := [3]int{int(op.T[0]), int(op.T[1]), int(op.T[2])}
		switch op.Kind {
		case CmdAAP:
			single.aap(int(op.Src), dsts...)
			ref.aap(int(op.Src), dsts)
		case CmdAP:
			single.ap(tr[0], tr[1], tr[2])
			ref.ap(tr)
		case CmdMajCopy:
			single.majCopy(tr[0], tr[1], tr[2], dsts...)
			ref.majCopy(tr, dsts)
		}
		if err := rm.CheckOp(&ops[i]); err != nil {
			t.Fatalf("op %d %+v: %v", i, op, err)
		}
	}
	lowered, raw := rm.Plan(ops, true), rm.Plan(ops, false)
	sas[0].Exec(&lowered)
	sas[1].Exec(&raw)

	for row := range ref.rows {
		for w, want := range ref.rows[row] {
			for i, sa := range sas {
				if got := sa.rows[row][w]; got != want {
					t.Fatalf("trial %d: %s row %d word %d = %x, reference %x", trial, names[i], row, w, got, want)
				}
			}
		}
	}
	for i, sa := range sas {
		if sa.Stats != ref.stats {
			t.Fatalf("trial %d: %s stats %+v, reference %+v", trial, names[i], sa.Stats, ref.stats)
		}
		if !slices.Equal(traces[i], ref.trace) {
			t.Fatalf("trial %d: %s trace differs from the reference", trial, names[i])
		}
	}
}

// TestPlanEnergyHookFree pins the hook-free energy charge: a run with
// no OnCommand charges each energy class's op count times its
// per-command energy in one sum, and that must equal, bit for bit, the
// per-op sum a hooked run adds in stream order, over repeated runs and
// on top of host-transfer energy, at every width
// TestKernelMatchesReference covers.
func TestPlanEnergyHookFree(t *testing.T) {
	for _, cols := range []int{64, 192, 256, 320, 512, 576, 960, 8192} {
		cfg := TestConfig()
		cfg.Cols = cols
		rng := rand.New(rand.NewSource(int64(cols)))
		ops := randomOps(rng, &cfg, 200)
		free, hooked := NewSubarray(&cfg), NewSubarray(&cfg)
		rm := free.RowMap()
		for i := range ops {
			if err := rm.CheckOp(&ops[i]); err != nil {
				t.Fatalf("cols=%d: op %d: %v", cols, i, err)
			}
		}
		row := make([]uint64, cfg.WordsPerRow())
		for _, sa := range []*Subarray{free, hooked} {
			sa.WriteRow(0, row) // host-write energy under the sums
		}
		commands := 0
		hooked.OnCommand = func(Command) { commands++ }
		for _, lower := range []bool{true, false} {
			p := rm.Plan(ops, lower)
			for run := 0; run < 3; run++ {
				free.Exec(&p)
				hooked.Exec(&p)
				if got, want := math.Float64bits(free.Stats.EnergyPJ), math.Float64bits(hooked.Stats.EnergyPJ); got != want {
					t.Fatalf("cols=%d lower=%v run %d: hook-free energy %v pJ, hooked %v pJ",
						cols, lower, run, free.Stats.EnergyPJ, hooked.Stats.EnergyPJ)
				}
				if free.Stats != hooked.Stats {
					t.Fatalf("cols=%d lower=%v run %d: hook-free stats %+v, hooked %+v", cols, lower, run, free.Stats, hooked.Stats)
				}
			}
		}
		if commands != 6*len(ops) {
			t.Fatalf("cols=%d: hook saw %d commands, want %d", cols, commands, 6*len(ops))
		}
	}
}

// TestExecViewShortTablePanicsBeforeStores runs a plan through a view
// whose row table lacks a row the plan's second step writes: ExecView
// must panic before the first step stores, leaving every row and the
// stats as they were, on the 4-word step loops (Go and vector) and on
// the wide ones (steps on the Go and AVX2 row loops, and the AVX-512
// step loop).
func TestExecViewShortTablePanicsBeforeStores(t *testing.T) {
	for _, c := range []struct {
		cols  int
		loops LoopSetting
	}{{256, LoopSettings[0]}, {256, LoopSettings[1]}, {512, LoopSettings[0]}, {512, LoopSettings[1]}, {512, LoopSettings[2]}} {
		func() {
			restore, ok := c.loops.Set()
			if !ok {
				return
			}
			defer restore()
			cfg := TestConfig()
			cfg.Cols = c.cols
			s := NewSubarray(&cfg)
			rng := rand.New(rand.NewSource(36))
			for r := int32(0); r < s.rm.C0; r++ {
				s.Poke(int(r), randRow(rng, cfg.WordsPerRow()))
			}
			ops := []Op{
				{Kind: CmdAAP, Src: 0, NDst: 1, Dsts: [3]int32{1}},
				{Kind: CmdAAP, Src: 0, NDst: 1, Dsts: [3]int32{20}},
			}
			for i := range ops {
				if err := s.rm.CheckOp(&ops[i]); err != nil {
					t.Fatal(err)
				}
			}
			p := s.rm.Plan(ops, false)
			phys := make([]int32, 10)
			for i := range phys {
				phys[i] = int32(i)
			}
			v := s.NewView(phys, make([][]uint64, len(phys)))
			before, stats := newRef(s).rows, s.Stats
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("cols=%d loops=%s: a plan naming row 20 ran through a 10-row view", c.cols, c.loops.Name)
					}
				}()
				s.ExecView(&v, &p)
			}()
			for r, want := range before {
				if !slices.Equal(s.rows[r], want) {
					t.Errorf("cols=%d loops=%s: row %d changed before the panic", c.cols, c.loops.Name, r)
				}
			}
			if s.Stats != stats {
				t.Errorf("cols=%d loops=%s: stats %+v, were %+v", c.cols, c.loops.Name, s.Stats, stats)
			}
		}()
	}
}

// TestCheckOpRejects pins each condition the kernel relies on.
func TestCheckOpRejects(t *testing.T) {
	cfg := TestConfig()
	rm := cfg.RowMap()
	t0, t1, t2 := rm.T, rm.T+1, rm.T+2
	cases := []struct {
		name string
		op   Op
	}{
		{"AAP source out of range", Op{Kind: CmdAAP, Src: rm.Rows(), NDst: 1, Dsts: [3]int32{1}}},
		{"AAP negative source", Op{Kind: CmdAAP, Src: -1, NDst: 1, Dsts: [3]int32{1}}},
		{"AAP destination out of range", Op{Kind: CmdAAP, Src: 0, NDst: 1, Dsts: [3]int32{rm.Rows()}}},
		{"AAP no destination", Op{Kind: CmdAAP, Src: 0}},
		{"AAP four destinations", Op{Kind: CmdAAP, Src: 0, NDst: 4, Dsts: [3]int32{t0, t1, t2}}},
		{"AAP multi-row destination in data rows", Op{Kind: CmdAAP, Src: 0, NDst: 2, Dsts: [3]int32{t0, 1}}},
		{"AAP writes C0", Op{Kind: CmdAAP, Src: 0, NDst: 1, Dsts: [3]int32{rm.C0}}},
		{"AAP writes C1", Op{Kind: CmdAAP, Src: 0, NDst: 1, Dsts: [3]int32{rm.C0 + 1}}},
		{"AP data row", Op{Kind: CmdAP, T: [3]int32{t0, t1, 0}}},
		{"AP DCC row", Op{Kind: CmdAP, T: [3]int32{t0, t1, rm.DCC}}},
		{"AP repeated T row", Op{Kind: CmdAP, T: [3]int32{t0, t1, t0}}},
		{"MajCopy data row", Op{Kind: CmdMajCopy, T: [3]int32{0, t1, t2}, NDst: 1, Dsts: [3]int32{1}}},
		{"MajCopy repeated T row", Op{Kind: CmdMajCopy, T: [3]int32{t1, t1, t2}, NDst: 1, Dsts: [3]int32{1}}},
		{"MajCopy writes C1", Op{Kind: CmdMajCopy, T: [3]int32{t0, t1, t2}, NDst: 1, Dsts: [3]int32{rm.C0 + 1}}},
		{"MajCopy no destination", Op{Kind: CmdMajCopy, T: [3]int32{t0, t1, t2}}},
		{"host command", Op{Kind: CmdHostRead}},
	}
	for _, tc := range cases {
		op := tc.op
		if err := rm.CheckOp(&op); err == nil {
			t.Errorf("%s: CheckOp accepted %+v", tc.name, tc.op)
		}
	}
}

// TestOpSize keeps resolved streams compact: the control unit caches
// thousands of them, one Op per command.
func TestOpSize(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got > 48 {
		t.Fatalf("dram.Op is %d bytes, want at most 48", got)
	}
}

// TestInjectBitFlipsDCCMirrors checks that a flipped dual-contact cell
// reads back flipped through both of its rows.
func TestInjectBitFlipsDCCMirrors(t *testing.T) {
	s := testSubarray(t)
	rng := rand.New(rand.NewSource(6))
	data := randRow(rng, s.cfg.WordsPerRow())
	mask := make([]uint64, len(data))
	mask[0], mask[len(mask)-1] = 0b1010, 1<<63
	for _, pair := range [][2]int{{s.cfg.dccRow(1), s.cfg.dccNRow(1)}, {s.cfg.dccNRow(1), s.cfg.dccRow(1)}} {
		row := pair[0]
		s.Poke(row, data)
		s.InjectBitFlips(row, mask)
		got := s.PeekRow(row)
		comp := s.PeekRow(pair[1])
		for w := range data {
			if got[w] != data[w]^mask[w] {
				t.Fatalf("row %d word %d: flip not applied", row, w)
			}
			if comp[w] != ^(data[w] ^ mask[w]) {
				t.Fatalf("row %d word %d: complement row reads %x, want %x", row, w, comp[w], ^(data[w] ^ mask[w]))
			}
		}
	}
}

// FuzzRowLoops holds every row loop the CPU has to majGo and xorGo. On
// rows of 0 to 300 words (vector bodies with every tail length), it
// runs majRow under each loop setting with all 16 polarities of the
// three inputs and the output, d fresh or aliased to a, b or c, and
// xorRow with a copy and a complement, d fresh or aliased to s. A loop
// must leave d as the Go loop does, and every word past d's end and
// every input d does not alias as it was. The row loops have Go and
// AVX2 forms; the avx512 setting picks a step loop, not a row loop,
// and FuzzSteps checks it. The loops that ran and the ones skipped are
// logged, so a CPU without AVX2 shows in a -v log.
func FuzzRowLoops(f *testing.F) {
	var loops []LoopSetting
	var names []string
	for _, ls := range LoopSettings {
		if ls.AVX512 {
			continue
		}
		restore, ok := ls.Set()
		restore()
		if !ok {
			f.Logf("skipping the %s row loops: this CPU, or its OS, does not offer them", ls.Name)
			continue
		}
		loops, names = append(loops, ls), append(names, ls.Name)
	}
	f.Logf("row loops checked against majGo and xorGo: %v", names)
	for _, n := range []uint16{0, 1, 3, 4, 7, 8, 9, 12, 15, 16, 17, 23, 24, 31, 127, 128, 129, 300} {
		f.Add(n, int64(n))
	}
	f.Fuzz(func(t *testing.T, n uint16, seed int64) {
		checkRowLoops(t, loops, int(n%301), seed)
	})
}

// rowGuard is the number of words checkRowLoops keeps past each row's
// end to catch a loop that writes beyond it.
const rowGuard = 9

// checkRowLoops runs one FuzzRowLoops case: n-word rows from seed.
func checkRowLoops(t *testing.T, loops []LoopSetting, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// in holds a, b, c and d's starting words, each with its guard.
	var in [4][]uint64
	for k := range in {
		in[k] = randRow(rng, n+rowGuard)
	}
	var rows [4][]uint64
	reset := func() {
		for k := range rows {
			rows[k] = append(rows[k][:0], in[k]...)
		}
	}
	// check requires rows[dk] to hold want in its first n words and
	// every other word of rows as in.
	check := func(what string, dk int, want []uint64) {
		t.Helper()
		for k := range rows {
			for w, got := range rows[k] {
				exp := in[k][w]
				if k == dk && w < n {
					exp = want[w]
				}
				if got != exp {
					t.Fatalf("%s, %d words: row %d word %d = %x, want %x", what, n, k, w, got, exp)
				}
			}
		}
	}
	want := make([]uint64, n)
	for _, ls := range loops {
		restore, _ := ls.Set()
		for pol := 0; pol < 16; pol++ {
			ma, mb, mc, md := -uint64(pol&1), -uint64(pol>>1&1), -uint64(pol>>2&1), -uint64(pol>>3)
			majGo(want, in[0][:n], in[1][:n], in[2][:n], ma, mb, mc, md)
			for dk := 3; dk >= 0; dk-- { // d fresh, then aliased to c, b and a
				reset()
				majRow(rows[dk][:n], rows[0][:n], rows[1][:n], rows[2][:n], ma, mb, mc, md)
				check(fmt.Sprintf("%s majRow, polarity %04b, d row %d", ls.Name, pol, dk), dk, want)
			}
		}
		for _, m := range []uint64{0, ^uint64(0)} {
			xorGo(want, in[0][:n], m)
			for _, dk := range []int{3, 0} { // d fresh, then aliased to s
				reset()
				xorRow(rows[dk][:n], rows[0][:n], m)
				check(fmt.Sprintf("%s xorRow, mask %x, d row %d", ls.Name, m, dk), dk, want)
			}
		}
		restore()
	}
}

// BenchmarkRowLoops times one majority and one complement of 128-word
// (8192-column) rows, what a wide step's first output and a DCC
// partner cost in steps, on the Go row loops and, where the CPU has
// them, the AVX2 ones.
func BenchmarkRowLoops(b *testing.B) {
	const words = 128
	rng := rand.New(rand.NewSource(42))
	x, y, z, d := randRow(rng, words), randRow(rng, words), randRow(rng, words), randRow(rng, words)
	for _, ls := range LoopSettings[:2] {
		b.Run(ls.Name, func(b *testing.B) {
			restore, ok := ls.Set()
			if !ok {
				b.Skipf("no %s row loops on this CPU", ls.Name)
			}
			defer restore()
			for i := 0; i < b.N; i++ {
				majRow(d, x, y, z, 0, ^uint64(0), 0, 0)
				xorRow(x, d, ^uint64(0))
			}
		})
	}
}
