package uprog_test

import (
	"testing"

	"simdram/internal/logic"
	"simdram/internal/mig"
	"simdram/internal/uprog"
)

func encodeRoundTrip(t *testing.T, p *uprog.Program) *uprog.Program {
	t.Helper()
	b, err := p.Encode()
	if err != nil {
		t.Fatalf("%s: encode: %v", p.Name, err)
	}
	q, err := uprog.DecodeProgram(b)
	if err != nil {
		t.Fatalf("%s: decode: %v", p.Name, err)
	}
	return q
}

func programsEqual(a, b *uprog.Program) bool {
	if a.Name != b.Name || a.Width != b.Width || a.DstWidth != b.DstWidth ||
		a.NumSrc != b.NumSrc || a.NumScratch != b.NumScratch || len(a.Ops) != len(b.Ops) {
		return false
	}
	for k := 0; k < a.NumSrc; k++ {
		if a.SrcWidth(k) != b.SrcWidth(k) {
			return false
		}
	}
	for i := range a.Ops {
		x, y := a.Ops[i], b.Ops[i]
		if x.Kind != y.Kind || x.Src != y.Src || x.T != y.T || len(x.Dsts) != len(y.Dsts) {
			return false
		}
		for j := range x.Dsts {
			if x.Dsts[j] != y.Dsts[j] {
				return false
			}
		}
	}
	return true
}

func TestEncodeDecodeAdder(t *testing.T) {
	m := buildAdderMIG(t, 8)
	in, out := stdRefs(8, 8)
	p, err := uprog.Generate(m, in, out, uprog.DefaultCodegen("add8"))
	if err != nil {
		t.Fatal(err)
	}
	q := encodeRoundTrip(t, p)
	if !programsEqual(p, q) {
		t.Fatal("round trip changed the program")
	}
}

func TestEncodeDecodeAmbitVariant(t *testing.T) {
	// Exercises MajCopy encoding.
	c := logic.New()
	a := c.Input("a")
	b := c.Input("b")
	c.Output(c.And(a, b), "and")
	m, err := mig.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	in := []uprog.Ref{{Space: uprog.SpaceSrc, Op: 0, Idx: 0}, {Space: uprog.SpaceSrc, Op: 1, Idx: 0}}
	out := []uprog.Ref{{Space: uprog.SpaceDst, Idx: 0}}
	p, err := uprog.GenerateAmbit(m, in, out, "and1")
	if err != nil {
		t.Fatal(err)
	}
	hasMajCopy := false
	for _, op := range p.Ops {
		if op.Kind == uprog.OpMajCopy {
			hasMajCopy = true
		}
	}
	if !hasMajCopy {
		t.Fatal("Ambit program should contain a MajCopy")
	}
	q := encodeRoundTrip(t, p)
	if !programsEqual(p, q) {
		t.Fatal("round trip changed the program")
	}
}

// TestDecodedProgramExecutes closes the control-unit loop: a μProgram
// shipped as bytes (as the driver would install it) must execute in DRAM
// identically to the in-memory original.
func TestDecodedProgramExecutes(t *testing.T) {
	m := buildAdderMIG(t, 8)
	in, out := stdRefs(8, 8)
	p, err := uprog.Generate(m, in, out, uprog.DefaultCodegen("add8"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	q, err := uprog.DecodeProgram(blob)
	if err != nil {
		t.Fatal(err)
	}
	av := []uint64{1, 200, 55, 254}
	bv := []uint64{2, 100, 200, 3}
	got := runOnSubarray(t, q, 8, av, bv)
	for i := range got {
		want := (av[i] + bv[i]) & 0xFF
		if got[i] != want {
			t.Fatalf("lane %d: decoded program computed %d, want %d", i, got[i], want)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	m := buildAdderMIG(t, 4)
	in, out := stdRefs(4, 4)
	p, err := uprog.Generate(m, in, out, uprog.DefaultCodegen("add4"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := uprog.DecodeProgram(b[:len(b)-3]); err == nil {
		t.Error("truncated program must be rejected")
	}
	if _, err := uprog.DecodeProgram(append([]byte{}, b[1:]...)); err == nil {
		t.Error("bad magic must be rejected")
	}
	bad := append([]byte{}, b...)
	bad[4] = 99 // version
	if _, err := uprog.DecodeProgram(bad); err == nil {
		t.Error("bad version must be rejected")
	}
	if _, err := uprog.DecodeProgram(append(b, 0)); err == nil {
		t.Error("trailing bytes must be rejected")
	}
}
