package dram_test

// The 256-column step loop checked on real μPrograms. These tests live
// in dram's external test package, not in uprog's, because only dram's
// own test files can switch the kernel's loops.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/ops"
	"simdram/internal/uprog"
)

// TestNarrowKernelMatchesWideOnCatalog runs every catalog operation's
// template — both synthesis variants, widths 8 and 16, reductions at
// three operands — on 256-column rows, where the kernel runs its
// 4-word step loop, and on 512-column rows holding the same data in
// each row's first 4 words, where it runs the row loops: the Go ones
// and, where the CPU has them, the AVX2 and AVX-512 ones (with the
// vector 4-word step loop on the narrow side). Each side runs the
// view twice. Every row's first 4 words, the Stats (EnergyPJ
// bit-exact) and the physical-row command traces must match.
func TestNarrowKernelMatchesWideOnCatalog(t *testing.T) {
	narrow := dram.TestConfig()
	narrow.RowsPerSubarray = 512 // room for 16-bit division's scratch
	wide := narrow
	narrow.Cols, wide.Cols = 256, 512
	rng := rand.New(rand.NewSource(25))
	checked := 0
	for _, variant := range []ops.Variant{ops.VariantSIMDRAM, ops.VariantAmbit} {
		for _, width := range []int{8, 16} {
			for _, d := range ops.Catalog() {
				n := d.Arity
				if n < 0 {
					n = 3
				}
				s, err := ops.SynthesizeCached(d, width, n, variant)
				if err != nil {
					t.Fatalf("%s/%d (variant %v): %v", d.Name, width, variant, err)
				}
				p := s.Program
				name := fmt.Sprintf("%s/%s/%d", d.Name, p.Name, width)
				b, ok := packedBinding(p, narrow)
				if !ok {
					t.Fatalf("%s: does not fit the test geometry's %d data rows", name, narrow.DataRows())
				}
				tn, tw := uprog.NewTemplate(p, narrow), uprog.NewTemplate(p, wide)
				for _, ls := range dram.LoopSettings {
					restore, ok := ls.Set()
					if !ok {
						continue
					}
					checkNarrowMatchesWide(t, rng, fmt.Sprintf("%s loops=%s", name, ls.Name), tn, tw, b, narrow, wide)
					restore()
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no catalog program checked")
	}
}

// packedBinding places p's sources from row 0, its destination after
// them and its scratch at the top of the data rows; ok is false when
// they overlap.
func packedBinding(p *uprog.Program, cfg dram.Config) (b uprog.Binding, ok bool) {
	base := 0
	for k := 0; k < p.NumSrc; k++ {
		b.SrcBase = append(b.SrcBase, base)
		base += p.SrcWidth(k)
	}
	b.DstBase = base
	b.ScratchBase = cfg.DataRows() - p.NumScratch
	return b, base+p.DstWidth <= b.ScratchBase
}

// checkNarrowMatchesWide runs one template pair of
// TestNarrowKernelMatchesWideOnCatalog.
func checkNarrowMatchesWide(t *testing.T, rng *rand.Rand, name string, tn, tw *uprog.Template, b uprog.Binding, narrow, wide dram.Config) {
	t.Helper()
	sn, sw := dram.NewSubarray(&narrow), dram.NewSubarray(&wide)
	row := make([]uint64, wide.WordsPerRow())
	for r := 0; r < narrow.C0Row(); r++ {
		for w := range row {
			row[w] = rng.Uint64()
		}
		sn.Poke(r, row[:narrow.WordsPerRow()])
		sw.Poke(r, row)
	}
	var traceN, traceW []dram.Command
	sn.OnCommand = func(c dram.Command) { traceN = append(traceN, c) }
	sw.OnCommand = func(c dram.Command) { traceW = append(traceW, c) }
	vn, err := tn.BindInto(sn, b, make([]int32, tn.Rows()), make([][]uint64, tn.Rows()))
	if err != nil {
		t.Fatalf("%s: bind 256 columns: %v", name, err)
	}
	vw, err := tw.BindInto(sw, b, make([]int32, tw.Rows()), make([][]uint64, tw.Rows()))
	if err != nil {
		t.Fatalf("%s: bind 512 columns: %v", name, err)
	}
	for run := 0; run < 2; run++ {
		uprog.RunView(sn, &vn)
		uprog.RunView(sw, &vw)
		for r := 0; r < narrow.RowsPerSubarray; r++ {
			got, want := sn.PeekRow(r), sw.PeekRow(r)[:narrow.WordsPerRow()]
			if !slices.Equal(got, want) {
				t.Fatalf("%s run %d: row %d is %x at 256 columns, %x at 512", name, run, r, got, want)
			}
		}
		if sn.Stats != sw.Stats || math.Float64bits(sn.Stats.EnergyPJ) != math.Float64bits(sw.Stats.EnergyPJ) {
			t.Fatalf("%s run %d: stats %+v at 256 columns, %+v at 512", name, run, sn.Stats, sw.Stats)
		}
	}
	if len(traceN) == 0 || !slices.Equal(traceN, traceW) {
		t.Fatalf("%s: 256-column trace (%d commands) differs from the 512-column one (%d)", name, len(traceN), len(traceW))
	}
}

// BenchmarkSteps4 times the 4-word step loop alone, the Go loop and,
// where the CPU has it, the AVX2 one, on the lowered templates of 8-bit
// addition and of 16-bit multiplication (the TPC-H operation that
// dominates serving) bound on a 256-column, 512-row subarray,
// reporting host ns per step.
func BenchmarkSteps4(b *testing.B) {
	cfg := dram.TestConfig()
	cfg.Cols = 256
	cfg.RowsPerSubarray = 512
	for _, bc := range []struct {
		name  string
		code  ops.Code
		width int
	}{{"add8", ops.OpAdd, 8}, {"mul16", ops.OpMul, 16}} {
		d, err := ops.ByCode(bc.code)
		if err != nil {
			b.Fatal(err)
		}
		s, err := ops.SynthesizeCached(d, bc.width, 2, ops.VariantSIMDRAM)
		if err != nil {
			b.Fatal(err)
		}
		tmpl := uprog.NewTemplate(s.Program, cfg)
		bind, ok := packedBinding(s.Program, cfg)
		if !ok {
			b.Fatalf("%s does not fit the test geometry", bc.name)
		}
		sa := dram.NewSubarray(&cfg)
		rows := make([][]uint64, tmpl.Rows())
		if _, err := tmpl.BindInto(sa, bind, make([]int32, tmpl.Rows()), rows); err != nil {
			b.Fatal(err)
		}
		// The template's virtual geometry: its regions as data rows,
		// then the compute rows.
		rm := sa.RowMap()
		n := int32(tmpl.Rows()) - (rm.Rows() - rm.T)
		plan := dram.RowMap{T: n, DCC: n + rm.DCC - rm.T, C0: n + rm.C0 - rm.T}.Plan(tmpl.Ops, true)
		for _, vec := range []bool{false, true} {
			name := bc.name + "/go"
			if vec {
				name = bc.name + "/vector"
			}
			b.Run(name, func(b *testing.B) {
				if vec && !dram.HaveVector() {
					b.Skip("no vector step loop on this CPU")
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dram.Steps4(rows, &plan, vec)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*plan.Steps()), "ns/step")
			})
		}
	}
}
