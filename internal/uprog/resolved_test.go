package uprog_test

// Differential and allocation tests for the bind-once/run-many hot
// path: RunResolved must be bit- and trace-identical to the
// interpretive Run for every catalog operation under both synthesis
// variants, and the steady-state loop must not allocate.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/ops"
	"simdram/internal/raceflag"
	"simdram/internal/uprog"
)

// layoutBinding packs the program's operands, destination, and scratch
// into the data rows: sources first, then dst, scratch at the tail.
func layoutBinding(p *uprog.Program, cfg dram.Config) uprog.Binding {
	b := uprog.Binding{}
	base := 0
	for k := 0; k < p.NumSrc; k++ {
		b.SrcBase = append(b.SrcBase, base)
		base += p.SrcWidth(k)
	}
	b.DstBase = base
	b.ScratchBase = cfg.DataRows() - p.NumScratch
	return b
}

// seedSources fills both subarrays' source rows with identical random
// data.
func seedSources(rng *rand.Rand, p *uprog.Program, b uprog.Binding, cfg dram.Config, sas ...*dram.Subarray) {
	row := make([]uint64, cfg.WordsPerRow())
	for k := 0; k < p.NumSrc; k++ {
		for i := 0; i < p.SrcWidth(k); i++ {
			for w := range row {
				row[w] = rng.Uint64()
			}
			for _, sa := range sas {
				sa.Poke(b.SrcBase[k]+i, row)
			}
		}
	}
}

// catalogPrograms yields every catalog operation's μProgram under both
// synthesis variants at width 8 (reductions at three operands).
func catalogPrograms(t *testing.T, cfg dram.Config) map[string]*uprog.Program {
	t.Helper()
	progs := map[string]*uprog.Program{}
	for _, variant := range []ops.Variant{ops.VariantSIMDRAM, ops.VariantAmbit} {
		for _, d := range ops.Catalog() {
			n := d.Arity
			if n < 0 {
				n = 3
			}
			s, err := ops.SynthesizeCached(d, 8, n, variant)
			if err != nil {
				t.Fatalf("%s (variant %v): %v", d.Name, variant, err)
			}
			if s.Program.RowsNeeded() > cfg.DataRows() {
				t.Fatalf("%s: needs %d rows, test geometry has %d", d.Name, s.Program.RowsNeeded(), cfg.DataRows())
			}
			progs[d.Name+"/"+s.Program.Name] = s.Program
		}
	}
	return progs
}

func TestResolvedMatchesInterpretiveAllCatalogOps(t *testing.T) {
	cfg := dram.TestConfig()
	rng := rand.New(rand.NewSource(7))
	for name, p := range catalogPrograms(t, cfg) {
		b := layoutBinding(p, cfg)
		saI := dram.NewSubarray(&cfg)
		saR := dram.NewSubarray(&cfg)
		seedSources(rng, p, b, cfg, saI, saR)

		var traceI, traceR []dram.Command
		saI.OnCommand = func(c dram.Command) { traceI = append(traceI, c) }
		saR.OnCommand = func(c dram.Command) { traceR = append(traceR, c) }

		if err := uprog.Run(p, saI, b); err != nil {
			t.Fatalf("%s: interpretive run: %v", name, err)
		}
		st, err := uprog.Resolve(p, b, cfg)
		if err != nil {
			t.Fatalf("%s: resolve: %v", name, err)
		}
		if len(st.Ops) != len(p.Ops) {
			t.Fatalf("%s: stream has %d ops, program %d", name, len(st.Ops), len(p.Ops))
		}
		uprog.RunResolved(saR, st)

		if len(traceI) != len(traceR) {
			t.Fatalf("%s: interpretive issued %d commands, resolved %d", name, len(traceI), len(traceR))
		}
		for i := range traceI {
			if traceI[i] != traceR[i] {
				t.Fatalf("%s: command %d differs: interpretive %+v resolved %+v", name, i, traceI[i], traceR[i])
			}
		}
		for row := 0; row < cfg.RowsPerSubarray; row++ {
			ri, rr := saI.PeekRow(row), saR.PeekRow(row)
			for w := range ri {
				if ri[w] != rr[w] {
					t.Fatalf("%s: row %d word %d differs: interpretive %x resolved %x", name, row, w, ri[w], rr[w])
				}
			}
		}
		if saI.Stats != saR.Stats {
			t.Fatalf("%s: stats diverge: interpretive %+v resolved %+v", name, saI.Stats, saR.Stats)
		}
	}
}

func TestResolveRejectsBadBindings(t *testing.T) {
	cfg := dram.TestConfig()
	p := &uprog.Program{Name: "x", Width: 8, NumSrc: 2, DstWidth: 8, NumScratch: 4,
		Ops: []uprog.MicroOp{{Kind: uprog.OpAAP, Src: uprog.Ref{Space: uprog.SpaceSrc}, Dsts: []uprog.Ref{{Space: uprog.SpaceDst}}}}}
	if _, err := uprog.Resolve(p, uprog.Binding{SrcBase: []int{0, 8}, DstBase: 4, ScratchBase: 24}, cfg); err == nil {
		t.Error("dst overlapping src must be rejected at resolve time")
	}
	if _, err := uprog.Resolve(p, uprog.Binding{SrcBase: []int{0, 8}, DstBase: cfg.DataRows() - 2, ScratchBase: 24}, cfg); err == nil {
		t.Error("dst outside data rows must be rejected at resolve time")
	}
	if _, err := uprog.Resolve(p, uprog.Binding{SrcBase: []int{0}, DstBase: 16, ScratchBase: 24}, cfg); err == nil {
		t.Error("missing operand base must be rejected at resolve time")
	}
	if st, err := uprog.Resolve(p, uprog.Binding{SrcBase: []int{0, 8}, DstBase: 16, ScratchBase: 24}, cfg); err != nil || st == nil {
		t.Errorf("good binding rejected: %v", err)
	}
}

// TestResolveRejectsInvalidCommands covers every condition the DRAM
// command methods check at issue: Resolve rejects each one up front,
// naming the op, and the interpretive Run — which issues through those
// methods — refuses the same op.
func TestResolveRejectsInvalidCommands(t *testing.T) {
	cfg := dram.TestConfig()
	b := uprog.Binding{SrcBase: []int{0, 8}, DstBase: 16, ScratchBase: 24}
	src := uprog.Ref{Space: uprog.SpaceSrc}
	dst := func(i int) uprog.Ref { return uprog.Ref{Space: uprog.SpaceDst, Idx: i} }
	t3 := func(i int) uprog.Ref { return uprog.Ref{Space: uprog.SpaceT, Idx: i} }
	past := uprog.Ref{Space: uprog.SpaceScratch, Idx: cfg.RowsPerSubarray} // beyond the last row
	c0, c1 := uprog.Ref{Space: uprog.SpaceC0}, uprog.Ref{Space: uprog.SpaceC1}
	aap := func(s uprog.Ref, d ...uprog.Ref) uprog.MicroOp {
		return uprog.MicroOp{Kind: uprog.OpAAP, Src: s, Dsts: d}
	}
	majCopy := func(tr [3]int, d ...uprog.Ref) uprog.MicroOp {
		return uprog.MicroOp{Kind: uprog.OpMajCopy, T: tr, Dsts: d}
	}
	cases := []struct {
		name string
		op   uprog.MicroOp
	}{
		{"source out of range", aap(past, dst(0))},
		{"destination out of range", aap(src, past)},
		{"negative destination", aap(src, dst(-17))},
		{"AP non-T row", uprog.MicroOp{Kind: uprog.OpAP, T: [3]int{0, 1, cfg.NumTRows}}},
		{"MajCopy non-T row", majCopy([3]int{-1, 1, 2}, dst(0))},
		{"AP repeated T row", uprog.MicroOp{Kind: uprog.OpAP, T: [3]int{0, 1, 0}}},
		{"MajCopy repeated T row", majCopy([3]int{2, 2, 1}, dst(0))},
		{"multi-row AAP destination in data rows", aap(src, t3(0), dst(0))},
		{"AAP writes C0", aap(src, c0)},
		{"MajCopy writes C1", majCopy([3]int{0, 1, 2}, c1)},
		{"AAP without destinations", aap(src)},
		{"MajCopy with four destinations", majCopy([3]int{0, 1, 2}, dst(0), dst(1), dst(2), dst(3))},
	}
	for _, tc := range cases {
		p := &uprog.Program{Name: "bad", Width: 8, NumSrc: 2, DstWidth: 8, NumScratch: 4,
			Ops: []uprog.MicroOp{aap(src, dst(0)), tc.op}}
		if _, err := uprog.Resolve(p, b, cfg); err == nil || !strings.Contains(err.Error(), "op 1:") {
			t.Errorf("%s: Resolve error %v, want one naming op 1", tc.name, err)
		}
		if !interpretiveRunFails(p, b, cfg) {
			t.Errorf("%s: the command methods accepted the op", tc.name)
		}
	}
}

// interpretiveRunFails reports whether uprog.Run errors or panics.
func interpretiveRunFails(p *uprog.Program, b uprog.Binding, cfg dram.Config) (failed bool) {
	defer func() {
		if recover() != nil {
			failed = true
		}
	}()
	return uprog.Run(p, dram.NewSubarray(&cfg), b) != nil
}

// TestValidateOverlapKinds pins the typed-region overlap rules: only
// source regions may alias each other.
func TestValidateOverlapKinds(t *testing.T) {
	cfg := dram.TestConfig()
	p := &uprog.Program{Name: "x", Width: 8, NumSrc: 2, DstWidth: 8, NumScratch: 4}
	cases := []struct {
		name string
		b    uprog.Binding
		ok   bool
	}{
		{"src aliases src", uprog.Binding{SrcBase: []int{0, 0}, DstBase: 16, ScratchBase: 32}, true},
		{"src overlaps src", uprog.Binding{SrcBase: []int{0, 4}, DstBase: 16, ScratchBase: 32}, true},
		{"dst overlaps src", uprog.Binding{SrcBase: []int{0, 8}, DstBase: 4, ScratchBase: 32}, false},
		{"scratch overlaps src", uprog.Binding{SrcBase: []int{0, 8}, DstBase: 16, ScratchBase: 4}, false},
		{"scratch overlaps dst", uprog.Binding{SrcBase: []int{0, 8}, DstBase: 16, ScratchBase: 18}, false},
		{"disjoint", uprog.Binding{SrcBase: []int{0, 8}, DstBase: 16, ScratchBase: 32}, true},
	}
	for _, tc := range cases {
		err := tc.b.Validate(p, cfg)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: overlap must be rejected", tc.name)
		}
	}
}

// additionStream builds the run-many fixture the allocation tests and
// benchmarks share: an 8-bit addition resolved on the test geometry.
func additionStream(tb testing.TB) (*dram.Subarray, *uprog.Program, uprog.Binding, *uprog.ResolvedStream, dram.Config) {
	return additionStreamCols(tb, dram.TestConfig().Cols)
}

// additionStreamCols is additionStream on rows of the given width.
func additionStreamCols(tb testing.TB, cols int) (*dram.Subarray, *uprog.Program, uprog.Binding, *uprog.ResolvedStream, dram.Config) {
	tb.Helper()
	cfg := dram.TestConfig()
	cfg.Cols = cols
	d, err := ops.ByName("addition")
	if err != nil {
		tb.Fatal(err)
	}
	s, err := ops.SynthesizeCached(d, 8, 2, ops.VariantSIMDRAM)
	if err != nil {
		tb.Fatal(err)
	}
	p := s.Program
	b := layoutBinding(p, cfg)
	sa := dram.NewSubarray(&cfg)
	seedSources(rand.New(rand.NewSource(3)), p, b, cfg, sa)
	st, err := uprog.Resolve(p, b, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return sa, p, b, st, cfg
}

// TestRunResolvedZeroAlloc is the uprog-level zero-allocation gate: the
// steady-state run-many loop must not touch the heap.
func TestRunResolvedZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector allocates; gate runs in the non-race CI job")
	}
	sa, _, _, st, _ := additionStream(t)
	if allocs := testing.AllocsPerRun(20, func() { uprog.RunResolved(sa, st) }); allocs != 0 {
		t.Fatalf("RunResolved allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkResolvedRun times the command kernel over an 8-bit addition
// stream on narrow (256-column) and paper-width-like (8192-column)
// rows, reporting host ns per DRAM command.
func BenchmarkResolvedRun(b *testing.B) {
	for _, cols := range []int{256, 8192} {
		b.Run(fmt.Sprintf("cols=%d", cols), func(b *testing.B) {
			sa, _, _, st, _ := additionStreamCols(b, cols)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				uprog.RunResolved(sa, st)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(st.Ops)), "ns/cmd")
		})
	}
}

// BenchmarkResolve times a cold uprog.Resolve of the 8-bit addition —
// the per-(program, binding) cost a plan-cache miss pays before its
// first run.
func BenchmarkResolve(b *testing.B) {
	_, p, bind, _, cfg := additionStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uprog.Resolve(p, bind, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolvedInterpretiveBaseline(b *testing.B) {
	sa, p, bind, _, _ := additionStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := uprog.Run(p, sa, bind); err != nil {
			b.Fatal(err)
		}
	}
}
