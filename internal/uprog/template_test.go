package uprog_test

// Differential tests for relocatable templates: binding a template as a
// row view must be indistinguishable from resolving the binding, for
// every catalog operation under both synthesis variants and random
// placements — rows, Stats, the physical-row command trace, and the
// exact error of a rejected binding.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/raceflag"
	"simdram/internal/uprog"
)

// shuffledBinding places the program's regions in random order with
// random gaps between them. With alias set and two or more sources, a
// second source is bound to the first one's rows.
func shuffledBinding(rng *rand.Rand, p *uprog.Program, dataRows int, alias bool) uprog.Binding {
	sizes := make([]int, p.NumSrc+2)
	for k := 0; k < p.NumSrc; k++ {
		sizes[k] = p.SrcWidth(k)
	}
	sizes[p.NumSrc], sizes[p.NumSrc+1] = p.DstWidth, p.NumScratch
	slack := dataRows
	for _, n := range sizes {
		slack -= n
	}
	bases := make([]int, len(sizes))
	row := 0
	for _, r := range rng.Perm(len(sizes)) {
		gap := rng.Intn(slack/len(sizes) + 1)
		slack -= gap
		row += gap
		bases[r] = row
		row += sizes[r]
	}
	b := uprog.Binding{SrcBase: bases[:p.NumSrc], DstBase: bases[p.NumSrc], ScratchBase: bases[p.NumSrc+1]}
	if alias && p.NumSrc >= 2 {
		b.SrcBase[1+rng.Intn(p.NumSrc-1)] = b.SrcBase[0]
	}
	return b
}

// brokenBinding perturbs a valid binding into one Validate may reject:
// an overlapping, out-of-range or short binding.
func brokenBinding(rng *rand.Rand, p *uprog.Program, b uprog.Binding, dataRows int) uprog.Binding {
	b.SrcBase = slices.Clone(b.SrcBase)
	switch rng.Intn(5) {
	case 0: // destination over a source
		b.DstBase = b.SrcBase[rng.Intn(len(b.SrcBase))] + rng.Intn(p.Width)
	case 1: // scratch over the destination
		b.ScratchBase = b.DstBase + rng.Intn(max(p.DstWidth, 1))
	case 2: // a region running past the data rows
		b.SrcBase[rng.Intn(len(b.SrcBase))] = dataRows - rng.Intn(p.Width)
	case 3: // a negative base
		b.DstBase = -1 - rng.Intn(4)
	default: // a missing operand base
		b.SrcBase = b.SrcBase[:len(b.SrcBase)-1]
	}
	return b
}

// seedRows fills every non-control row of the subarrays with identical
// random data, so gaps, compute rows and unbound rows all hold values a
// misplaced command would disturb.
func seedRows(rng *rand.Rand, cfg dram.Config, sas ...*dram.Subarray) {
	row := make([]uint64, cfg.WordsPerRow())
	for r := 0; r < cfg.C0Row(); r++ {
		for w := range row {
			row[w] = rng.Uint64()
		}
		for _, sa := range sas {
			sa.Poke(r, row)
		}
	}
}

// checkViewMatchesResolved runs b through Resolve + RunResolved and
// through the template's view on identically seeded subarrays, and
// fails on any difference in rows, Stats or trace.
func checkViewMatchesResolved(t *testing.T, rng *rand.Rand, name string, p *uprog.Program, tmpl *uprog.Template, b uprog.Binding, cfg dram.Config) {
	t.Helper()
	saR, saV := dram.NewSubarray(&cfg), dram.NewSubarray(&cfg)
	seedRows(rng, cfg, saR, saV)
	st, err := uprog.Resolve(p, b, cfg)
	if err != nil {
		t.Fatalf("%s %+v: resolve: %v", name, b, err)
	}
	v, err := tmpl.Bind(saV, b)
	if err != nil {
		t.Fatalf("%s %+v: bind: %v", name, b, err)
	}
	var traceR, traceV []dram.Command
	saR.OnCommand = func(c dram.Command) { traceR = append(traceR, c) }
	saV.OnCommand = func(c dram.Command) { traceV = append(traceV, c) }
	uprog.RunResolved(saR, st)
	uprog.RunView(saV, v)
	if !slices.Equal(traceR, traceV) {
		for i := range min(len(traceR), len(traceV)) {
			if traceR[i] != traceV[i] {
				t.Fatalf("%s %+v: command %d differs: resolved %+v view %+v", name, b, i, traceR[i], traceV[i])
			}
		}
		t.Fatalf("%s %+v: resolved issued %d commands, view %d", name, b, len(traceR), len(traceV))
	}
	for row := 0; row < cfg.RowsPerSubarray; row++ {
		if !slices.Equal(saR.PeekRow(row), saV.PeekRow(row)) {
			t.Fatalf("%s %+v: row %d differs", name, b, row)
		}
	}
	if saR.Stats != saV.Stats {
		t.Fatalf("%s %+v: stats diverge: resolved %+v view %+v", name, b, saR.Stats, saV.Stats)
	}
}

func TestTemplateMatchesResolveAllCatalogOps(t *testing.T) {
	cfg := dram.TestConfig()
	rng := rand.New(rand.NewSource(16))
	valid, aliased, rejected := 0, 0, 0
	for name, p := range catalogPrograms(t, cfg) {
		tmpl := uprog.NewTemplate(p, cfg)
		for trial := 0; trial < 12; trial++ {
			alias := trial%3 == 0
			b := shuffledBinding(rng, p, cfg.DataRows(), alias)
			if err := b.Validate(p, cfg); err == nil {
				checkViewMatchesResolved(t, rng, name, p, tmpl, b, cfg)
				valid++
				if alias && p.NumSrc >= 2 {
					aliased++
				}
			}
			bad := brokenBinding(rng, p, b, cfg.DataRows())
			_, rerr := uprog.Resolve(p, bad, cfg)
			_, berr := tmpl.Bind(dram.NewSubarray(&cfg), bad)
			switch {
			case rerr == nil && berr == nil:
				checkViewMatchesResolved(t, rng, name, p, tmpl, bad, cfg)
				valid++
			case rerr == nil || berr == nil:
				t.Fatalf("%s %+v: resolve error %v, bind error %v", name, bad, rerr, berr)
			case rerr.Error() != berr.Error():
				t.Fatalf("%s %+v: bind error %q, resolve error %q", name, bad, berr, rerr)
			default:
				rejected++
			}
		}
	}
	if valid == 0 || aliased == 0 || rejected == 0 {
		t.Fatalf("coverage: %d valid bindings (%d with aliased sources), %d rejected", valid, aliased, rejected)
	}
}

// TestTemplateRejectsInvalidCommands binds templates of programs with
// an op the DRAM commands refuse: Bind must report exactly Resolve's
// error for the binding.
func TestTemplateRejectsInvalidCommands(t *testing.T) {
	cfg := dram.TestConfig()
	b := uprog.Binding{SrcBase: []int{0, 8}, DstBase: 16, ScratchBase: 24}
	src := uprog.Ref{Space: uprog.SpaceSrc}
	dst := func(i int) uprog.Ref { return uprog.Ref{Space: uprog.SpaceDst, Idx: i} }
	aap := func(s uprog.Ref, d ...uprog.Ref) uprog.MicroOp {
		return uprog.MicroOp{Kind: uprog.OpAAP, Src: s, Dsts: d}
	}
	bad := []uprog.MicroOp{
		aap(uprog.Ref{Space: uprog.SpaceScratch, Idx: cfg.RowsPerSubarray}, dst(0)),
		aap(src, dst(-17)),
		{Kind: uprog.OpAP, T: [3]int{0, 1, cfg.NumTRows}},
		{Kind: uprog.OpAP, T: [3]int{0, 1, 0}},
		aap(src, uprog.Ref{Space: uprog.SpaceT}, dst(0)),
		aap(src, uprog.Ref{Space: uprog.SpaceC0}),
		aap(src),
		{Kind: uprog.OpMajCopy, T: [3]int{0, 1, 2}, Dsts: []uprog.Ref{dst(0), dst(1), dst(2), dst(3)}},
		{Kind: 9},
	}
	for _, op := range bad {
		p := &uprog.Program{Name: "bad", Width: 8, NumSrc: 2, DstWidth: 8, NumScratch: 4,
			Ops: []uprog.MicroOp{aap(src, dst(0)), op}}
		_, rerr := uprog.Resolve(p, b, cfg)
		_, berr := uprog.NewTemplate(p, cfg).Bind(dram.NewSubarray(&cfg), b)
		if rerr == nil || berr == nil || rerr.Error() != berr.Error() {
			t.Errorf("%v: bind error %v, resolve error %v", op, berr, rerr)
		}
	}

	// A reference past its own region lands on a row the placement
	// picks. Resolve takes whatever row that is; a template refuses it.
	p := &uprog.Program{Name: "stray", Width: 8, NumSrc: 2, DstWidth: 8, NumScratch: 4,
		Ops: []uprog.MicroOp{aap(src, dst(8))}}
	if _, err := uprog.Resolve(p, b, cfg); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if _, err := uprog.NewTemplate(p, cfg).Bind(dram.NewSubarray(&cfg), b); err == nil || !strings.Contains(err.Error(), "op 0:") {
		t.Errorf("bind error %v, want one naming op 0", err)
	}
}

// TestRunViewOtherSubarrayPanics pins the placement guard: a view runs
// only on the subarray it was bound on, and a template binds only on
// its own geometry.
func TestRunViewOtherSubarrayPanics(t *testing.T) {
	sa, p, b, _, cfg := additionStream(t)
	v, err := uprog.NewTemplate(p, cfg).Bind(sa, b)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("RunView on another subarray", func() { uprog.RunView(dram.NewSubarray(&cfg), v) })
	wide := cfg
	wide.RowsPerSubarray *= 2
	mustPanic("Bind on another geometry", func() { _, _ = uprog.NewTemplate(p, cfg).Bind(dram.NewSubarray(&wide), b) })
}

// TestBindingValidateZeroAlloc gates binding validation, which every
// view-cache miss pays: a binding of up to three sources is checked
// without touching the heap.
func TestBindingValidateZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector allocates; gate runs in the non-race CI job")
	}
	_, p, b, _, cfg := additionStream(t)
	three := &uprog.Program{Name: "three", Width: 8, NumSrc: 3, DstWidth: 8, NumScratch: 4}
	b3 := uprog.Binding{SrcBase: []int{0, 8, 16}, DstBase: 24, ScratchBase: 40}
	allocs := testing.AllocsPerRun(100, func() {
		if b.Validate(p, cfg) != nil || b3.Validate(three, cfg) != nil {
			t.Fatal("valid binding rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("Binding.Validate allocated %.1f times, want 0", allocs)
	}
}

// TestRunViewZeroAlloc is the zero-allocation gate of the control
// unit's run-many loop.
func TestRunViewZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector allocates; gate runs in the non-race CI job")
	}
	sa, p, b, _, cfg := additionStream(t)
	v, err := uprog.NewTemplate(p, cfg).Bind(sa, b)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { uprog.RunView(sa, v) }); allocs != 0 {
		t.Fatalf("RunView allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkViewRun is BenchmarkResolvedRun through a template view:
// the same 8-bit addition, reporting host ns per DRAM command.
func BenchmarkViewRun(b *testing.B) {
	for _, cols := range []int{256, 8192} {
		b.Run(fmt.Sprintf("cols=%d", cols), func(b *testing.B) {
			sa, p, bind, _, cfg := additionStreamCols(b, cols)
			tmpl := uprog.NewTemplate(p, cfg)
			v, err := tmpl.Bind(sa, bind)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				uprog.RunView(sa, v)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tmpl.Ops)), "ns/cmd")
		})
	}
}

// BenchmarkTemplateBind times binding the 8-bit addition's template at
// a placement — what a view-cache miss pays in place of
// BenchmarkResolve.
func BenchmarkTemplateBind(b *testing.B) {
	sa, p, bind, _, cfg := additionStream(b)
	tmpl := uprog.NewTemplate(p, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tmpl.Bind(sa, bind); err != nil {
			b.Fatal(err)
		}
	}
}

// templateSink keeps BenchmarkNewTemplate's result alive.
var templateSink *uprog.Template

// BenchmarkNewTemplate times building the 8-bit addition's template —
// flattening, checking and lowering its ops — which a program pays once
// per geometry.
func BenchmarkNewTemplate(b *testing.B) {
	_, p, _, _, cfg := additionStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		templateSink = uprog.NewTemplate(p, cfg)
	}
}
