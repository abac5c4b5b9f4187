package dram_test

// What lowering buys on the synthesized catalog, measured on resolved
// streams: the op streams templates and resolved streams lower.

import (
	"testing"
	"unsafe"

	"simdram/internal/dram"
	"simdram/internal/ops"
	"simdram/internal/uprog"
)

// resolveCatalog calls fn with the checked op stream of every catalog
// operation under both synthesis variants at each width (reductions at
// three operands), resolved with its regions packed from row 0.
func resolveCatalog(t *testing.T, cfg dram.Config, widths []int, fn func(d ops.Def, width int, v ops.Variant, ops []dram.Op)) {
	t.Helper()
	for _, variant := range []ops.Variant{ops.VariantSIMDRAM, ops.VariantAmbit} {
		for _, w := range widths {
			for _, d := range ops.Catalog() {
				n := d.Arity
				if n < 0 {
					n = 3
				}
				s, err := ops.SynthesizeCached(d, w, n, variant)
				if err != nil {
					t.Fatalf("%s/%d (variant %v): %v", d.Name, w, variant, err)
				}
				p := s.Program
				var b uprog.Binding
				row := 0
				for k := 0; k < p.NumSrc; k++ {
					b.SrcBase = append(b.SrcBase, row)
					row += p.SrcWidth(k)
				}
				b.DstBase, b.ScratchBase = row, row+p.DstWidth
				st, err := uprog.Resolve(p, b, cfg)
				if err != nil {
					t.Fatalf("%s/%d (variant %v): %v", d.Name, w, variant, err)
				}
				fn(d, w, variant, st.Ops)
			}
		}
	}
}

// TestPlanLoweringGain pins what lowering buys over the catalog at
// widths 8 and 16: at most 40% of the unlowered plans' row passes, and
// plans of at most a quarter of the op streams' bytes. The 8-bit
// addition alone must meet the byte bound too.
func TestPlanLoweringGain(t *testing.T) {
	cfg := dram.TestConfig()
	cfg.RowsPerSubarray = 512
	rm := cfg.RowMap()
	opBytes := int(unsafe.Sizeof(dram.Op{}))
	var passes, rawPasses, steps, nops, bytes, adds int
	resolveCatalog(t, cfg, []int{8, 16}, func(d ops.Def, width int, v ops.Variant, stream []dram.Op) {
		p, raw := rm.Plan(stream, true), rm.Plan(stream, false)
		passes += p.Passes()
		rawPasses += raw.Passes()
		steps += p.Steps()
		nops += len(stream)
		bytes += p.Bytes()
		if d.Name == "addition" && width == 8 && v == ops.VariantSIMDRAM {
			adds++
			t.Logf("8-bit addition: %d commands, %d steps, %d row passes (%d unlowered), %d plan bytes",
				len(stream), p.Steps(), p.Passes(), raw.Passes(), p.Bytes())
			if 4*p.Bytes() > len(stream)*opBytes {
				t.Errorf("8-bit addition: plan holds %d bytes, more than 25%% of its %d ops' %d", p.Bytes(), len(stream), len(stream)*opBytes)
			}
		}
	})
	if adds != 1 {
		t.Fatalf("met the 8-bit addition %d times, want once", adds)
	}
	t.Logf("row passes %d of %d unlowered, steps %d for %d ops, %d plan bytes for %d op bytes",
		passes, rawPasses, steps, nops, bytes, nops*opBytes)
	if 10*passes > 4*rawPasses {
		t.Errorf("lowered plans make %d row passes, more than 40%% of the unlowered %d", passes, rawPasses)
	}
	if 4*bytes > nops*opBytes {
		t.Errorf("plans hold %d bytes, more than 25%% of the %d bytes of their ops", bytes, nops*opBytes)
	}
}
