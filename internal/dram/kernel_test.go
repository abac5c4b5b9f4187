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
// vector row loops forced off and, where the CPU has them, on. Row
// widths cover the pure-Go loop (64 to 256 columns), exactly the
// vector threshold (512), a vector body with a one-word tail (576) and
// wide rows (8192).
func TestKernelMatchesReference(t *testing.T) {
	defer func(v bool) { useVector = v }(useVector)
	for _, cols := range []int{64, 192, 256, 512, 576, 8192} {
		t.Run(fmt.Sprintf("cols=%d", cols), func(t *testing.T) {
			for _, vec := range []bool{false, true} {
				t.Run(fmt.Sprintf("vector=%v", vec), func(t *testing.T) {
					if vec && !haveVector {
						t.Skip("no vector row loops on this CPU")
					}
					useVector = vec
					cfg := TestConfig()
					cfg.Cols = cols
					rng := rand.New(rand.NewSource(int64(cols)))
					for trial := 0; trial < 8; trial++ {
						checkKernelTrial(t, rng, &cfg, trial)
					}
				})
			}
		})
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
	for _, cols := range []int{64, 192, 256, 512, 576, 8192} {
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
