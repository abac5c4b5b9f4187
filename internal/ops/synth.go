package ops

import (
	"fmt"
	"sync"

	"simdram/internal/logic"
	"simdram/internal/mig"
	"simdram/internal/uprog"
)

// Variant selects a synthesis flavor.
type Variant uint8

// Synthesis variants.
const (
	// VariantSIMDRAM is the paper's flow: MAJ/NOT templates + MIG
	// optimization + allocation with row reuse.
	VariantSIMDRAM Variant = iota
	// VariantAmbit lowers through 2-input AND/OR/NOT only — the in-DRAM
	// baseline (Ambit) command stream.
	VariantAmbit
	// VariantNoOptimize disables Step-1 MAJ-native synthesis: the circuit
	// is decomposed to basic AND/OR/NOT gates (as prior works use) before
	// lowering, but keeps SIMDRAM's Step-2 allocator (ablation).
	VariantNoOptimize
	// VariantNoReuse is SIMDRAM without Step-2 row reuse (ablation).
	VariantNoReuse
)

func (v Variant) String() string {
	switch v {
	case VariantSIMDRAM:
		return "simdram"
	case VariantAmbit:
		return "ambit"
	case VariantNoOptimize:
		return "no-optimize"
	case VariantNoReuse:
		return "no-reuse"
	default:
		return fmt.Sprintf("variant(%d)", uint8(v))
	}
}

// Synthesized bundles the artifacts of lowering one operation.
type Synthesized struct {
	Def     Def
	Width   int
	N       int // operand count (meaningful for N-ary ops)
	Variant Variant

	Circuit *logic.Circuit
	MIG     *mig.MIG
	Program *uprog.Program
}

// RefsForWidths returns the conventional operand-major symbolic
// references for operands of the given widths and a dstWidth-bit
// destination.
func RefsForWidths(srcWidths []int, dstWidth int) (in, out []uprog.Ref) {
	for op, w := range srcWidths {
		for i := 0; i < w; i++ {
			in = append(in, uprog.Ref{Space: uprog.SpaceSrc, Op: op, Idx: i})
		}
	}
	for i := 0; i < dstWidth; i++ {
		out = append(out, uprog.Ref{Space: uprog.SpaceDst, Idx: i})
	}
	return in, out
}

// Synthesize lowers an operation to a μProgram. n is the operand count
// for N-ary operations (pass 0 for fixed-arity ones).
func Synthesize(d Def, width, n int, variant Variant) (*Synthesized, error) {
	arity := d.EffArity(n)
	if d.Arity < 0 && n < 2 {
		return nil, fmt.Errorf("ops: %s requires n >= 2 operands", d.Name)
	}
	circuit, err := d.Build(width, n)
	if err != nil {
		return nil, fmt.Errorf("ops: building %s/%d: %w", d.Name, width, err)
	}
	src := circuit
	if variant == VariantAmbit || variant == VariantNoOptimize {
		if src, err = logic.DecomposeAmbit(circuit); err != nil {
			return nil, err
		}
	}
	m, err := mig.FromCircuit(src)
	if err != nil {
		return nil, fmt.Errorf("ops: lowering %s/%d: %w", d.Name, width, err)
	}
	if variant == VariantSIMDRAM || variant == VariantNoReuse {
		m.Optimize(mig.DefaultOptimize())
	} else {
		m.Compact()
	}
	in, out := RefsForWidths(d.SourceWidths(width, arity), d.DstWidth(width))
	name := fmt.Sprintf("%s_%d_%s", d.Name, width, variant)
	var p *uprog.Program
	if variant == VariantAmbit {
		p, err = uprog.GenerateAmbit(m, in, out, name)
	} else {
		opts := uprog.DefaultCodegen(name)
		if variant == VariantNoReuse {
			opts.ReuseRows = false
		}
		p, err = uprog.Generate(m, in, out, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("ops: codegen %s/%d: %w", d.Name, width, err)
	}
	uprog.OptimizeProgram(p)
	return &Synthesized{
		Def: d, Width: width, N: arity, Variant: variant,
		Circuit: circuit, MIG: m, Program: p,
	}, nil
}

type synthKey struct {
	code    Code
	width   int
	n       int
	variant Variant
}

var (
	synthMu    sync.Mutex
	synthCache = map[synthKey]*Synthesized{}
)

// SynthesizeCached memoizes Synthesize; synthesis of wide multipliers and
// dividers is expensive and μPrograms are immutable once built.
func SynthesizeCached(d Def, width, n int, variant Variant) (*Synthesized, error) {
	key := synthKey{d.Code, width, n, variant}
	synthMu.Lock()
	defer synthMu.Unlock()
	if s, ok := synthCache[key]; ok {
		return s, nil
	}
	s, err := Synthesize(d, width, n, variant)
	if err != nil {
		return nil, err
	}
	synthCache[key] = s
	return s, nil
}
