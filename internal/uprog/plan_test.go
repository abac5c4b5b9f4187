package uprog_test

// Tests of when templates lower their plans: every synthesized program
// can be lowered, and a program whose writes would reach an aliased
// source row is not.

import (
	"math/rand"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/ops"
	"simdram/internal/uprog"
)

// TestCatalogTemplatesLowered checks the soundness condition lowering
// relies on for every synthesized program — each catalog operation
// under both synthesis variants at widths 4, 8, …, 32, reductions at
// three operands: no op writes a source row, so every template runs a
// lowered plan. It also checks that each template's latency, which
// the control unit schedules with, equals its program's.
func TestCatalogTemplatesLowered(t *testing.T) {
	cfg := dram.TestConfig()
	for _, variant := range []ops.Variant{ops.VariantSIMDRAM, ops.VariantAmbit} {
		for w := 4; w <= 32; w += 4 {
			for _, d := range ops.Catalog() {
				n := d.Arity
				if n < 0 {
					n = 3
				}
				s, err := ops.SynthesizeCached(d, w, n, variant)
				if err != nil {
					t.Fatalf("%s/%d (variant %v): %v", d.Name, w, variant, err)
				}
				tp := uprog.NewTemplate(s.Program, cfg)
				if !uprog.Lowered(tp) {
					t.Errorf("%s/%d (variant %v) writes a source row; its template runs unlowered", d.Name, w, variant)
				}
				if got, want := tp.LatencyNs(cfg.Timing), s.Program.LatencyNs(cfg.Timing); got != want {
					t.Errorf("%s/%d (variant %v): template latency %v, program latency %v", d.Name, w, variant, got, want)
				}
			}
		}
	}
}

// TestTemplateWritingAliasedSourceRow runs a hand-built program that
// writes a source row through a binding that aliases that source with
// another. Lowering on the template's virtual rows would forward the
// other source's stale copy; the template must run unlowered and match
// Resolve, whose physical rows see the alias.
func TestTemplateWritingAliasedSourceRow(t *testing.T) {
	cfg := dram.TestConfig()
	src := func(k, i int) uprog.Ref { return uprog.Ref{Space: uprog.SpaceSrc, Op: k, Idx: i} }
	dst := func(i int) uprog.Ref { return uprog.Ref{Space: uprog.SpaceDst, Idx: i} }
	t0 := uprog.Ref{Space: uprog.SpaceT}
	aap := func(s uprog.Ref, d ...uprog.Ref) uprog.MicroOp {
		return uprog.MicroOp{Kind: uprog.OpAAP, Src: s, Dsts: d}
	}
	p := &uprog.Program{Name: "writes-src", Width: 2, NumSrc: 2, DstWidth: 2,
		Ops: []uprog.MicroOp{
			aap(src(0, 0), t0), // T0 holds a copy of src0[0]
			aap(uprog.Ref{Space: uprog.SpaceC1}, src(1, 0)), // overwrites src1[0], which is src0[0]
			aap(t0, dst(0)),        // the old src0[0]
			aap(src(0, 0), dst(1)), // the new one
		}}
	tmpl := uprog.NewTemplate(p, cfg)
	if uprog.Lowered(tmpl) {
		t.Fatal("a template whose program writes a source row was lowered")
	}
	b := uprog.Binding{SrcBase: []int{4, 4}, DstBase: 8}
	checkViewMatchesResolved(t, rand.New(rand.NewSource(18)), p.Name, p, tmpl, b, cfg)
}
