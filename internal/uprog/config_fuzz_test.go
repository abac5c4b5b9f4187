package uprog_test

import (
	"math/rand"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/logic"
	"simdram/internal/mig"
	"simdram/internal/testoracle"
	"simdram/internal/uprog"
	"simdram/internal/vertical"
)

// TestCodegenConfigMatrix is the allocator's stress test: random MIGs are
// compiled under every supported compute-region geometry (one to three
// TRA groups, one to three DCC pairs) and executed in a DRAM model with a
// matching geometry; results must equal direct MIG evaluation bit for
// bit. This is the test that guards the spill/eviction corner cases —
// with a single DCC pair and a single TRA group, eviction pressure is
// maximal.
func TestCodegenConfigMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	geometries := []struct{ tRows, dccPairs int }{
		{3, 1},
		{3, 2},
		{6, 1},
		{6, 2},
		{9, 3},
	}
	for trial := 0; trial < 25; trial++ {
		width := 2
		nOps := 2
		c := logic.New()
		var inputs []int
		for op := 0; op < nOps; op++ {
			inputs = append(inputs, c.InputBus("x", width)...)
		}
		nodes := append([]int(nil), inputs...)
		pick := func() int { return nodes[rng.Intn(len(nodes))] }
		for i := 0; i < 30; i++ {
			var n int
			switch rng.Intn(6) {
			case 0:
				n = c.And(pick(), pick())
			case 1:
				n = c.Or(pick(), pick())
			case 2:
				n = c.Xor(pick(), pick())
			case 3:
				n = c.Xor(pick(), pick(), pick())
			case 4:
				n = c.Maj(pick(), pick(), pick())
			default:
				n = c.Not(pick())
			}
			nodes = append(nodes, n)
		}
		outs := make([]int, width)
		for i := range outs {
			outs[i] = nodes[len(nodes)-1-i]
		}
		c.OutputBus(outs, "y")
		m, err := mig.FromCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		if trial%2 == 0 {
			m.Optimize(mig.DefaultOptimize())
		}
		var in []uprog.Ref
		for op := 0; op < nOps; op++ {
			for i := 0; i < width; i++ {
				in = append(in, uprog.Ref{Space: uprog.SpaceSrc, Op: op, Idx: i})
			}
		}
		var out []uprog.Ref
		for i := 0; i < width; i++ {
			out = append(out, uprog.Ref{Space: uprog.SpaceDst, Idx: i})
		}

		for _, geo := range geometries {
			opts := uprog.CodegenOptions{
				Name:        "fuzz",
				NumTRows:    geo.tRows,
				NumDCCPairs: geo.dccPairs,
				ReuseRows:   trial%3 != 0, // exercise the naive path too
			}
			p, err := uprog.Generate(m, in, out, opts)
			if err != nil {
				t.Fatalf("trial %d geo %+v: %v", trial, geo, err)
			}
			uprog.OptimizeProgram(p)

			cfg := dram.TestConfig()
			cfg.NumTRows = geo.tRows
			cfg.NumDCCPairs = geo.dccPairs
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := testoracle.CheckProgram(p, cfg); err != nil {
				t.Fatalf("trial %d geo %+v: invalid program: %v", trial, geo, err)
			}
			sa := dram.NewSubarray(&cfg)
			n := 64
			vals := make([][]uint64, nOps)
			bind := uprog.Binding{DstBase: nOps * width, ScratchBase: cfg.DataRows() - p.NumScratch}
			for op := 0; op < nOps; op++ {
				vals[op] = make([]uint64, n)
				for i := range vals[op] {
					vals[op][i] = rng.Uint64() & 3
				}
				rows, err := vertical.ToVertical(vals[op], width, cfg.Cols)
				if err != nil {
					t.Fatal(err)
				}
				base := op * width
				bind.SrcBase = append(bind.SrcBase, base)
				for i := 0; i < width; i++ {
					sa.Poke(base+i, rows[i])
				}
			}
			if err := testoracle.Run(p, sa, bind); err != nil {
				t.Fatalf("trial %d geo %+v: %v", trial, geo, err)
			}
			dstRows := make([][]uint64, width)
			for i := range dstRows {
				dstRows[i] = sa.PeekRow(bind.DstBase + i)
			}
			got, err := vertical.ToHorizontal(dstRows, width, n)
			if err != nil {
				t.Fatal(err)
			}
			for lane := 0; lane < n; lane++ {
				bits := make([]bool, nOps*width)
				for op := 0; op < nOps; op++ {
					for i := 0; i < width; i++ {
						bits[op*width+i] = (vals[op][lane]>>uint(i))&1 == 1
					}
				}
				wantBits := testoracle.EvalBits(m.EvalWords, bits)
				var want uint64
				for i, wb := range wantBits {
					if wb {
						want |= 1 << uint(i)
					}
				}
				if got[lane] != want {
					t.Fatalf("trial %d geo %+v lane %d: got %d want %d\n%s",
						trial, geo, lane, got[lane], want, p)
				}
			}
		}
	}
}
