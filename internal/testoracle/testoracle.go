// Package testoracle holds the references several packages' tests
// check production code against. Chief among them is the interpretive
// μProgram executor: production runs a μProgram one way, a template
// bound as a view into a lowered row plan (or, for the bench ledger, a
// resolved stream), while Run issues it the slow, obvious way, every
// μOp resolved to physical rows on its own, checked with
// dram.RowMap.CheckOp and issued as a one-command plan, so a fault in
// templating, resolving or lowering shows up as a difference in rows,
// Stats or command trace. The rest check synthesis (CheckProgram, the
// circuit and MIG evaluators) and unpack verifier diagnostics.
//
// Only tests import this package; nothing in it is tuned for speed.
package testoracle

import (
	"errors"
	"fmt"
	"math/rand"

	"simdram/internal/dram"
	"simdram/internal/logic"
	"simdram/internal/mig"
	"simdram/internal/uprog"
	"simdram/internal/verify"
)

// Run executes the μProgram on one subarray under the binding, one
// command at a time. The caller loads vertical operand data into the
// source rows; results appear in the destination rows. An op whose
// rows do not resolve is an error; a command the DRAM rules refuse
// panics, as AAP, AP and MajCopy do. The binding's regions are not
// checked for overlap: that is production's job, which the tests
// check on their own.
func Run(p *uprog.Program, sa *dram.Subarray, b uprog.Binding) error {
	rm := sa.RowMap()
	for i, op := range p.Ops {
		var t [3]int
		if op.Kind != uprog.OpAAP {
			for j, idx := range op.T {
				row, err := resolve(b, uprog.Ref{Space: uprog.SpaceT, Idx: idx}, rm)
				if err != nil {
					return fmt.Errorf("testoracle: op %d: %w", i, err)
				}
				t[j] = row
			}
		}
		dsts := make([]int, len(op.Dsts))
		for j, d := range op.Dsts {
			row, err := resolve(b, d, rm)
			if err != nil {
				return fmt.Errorf("testoracle: op %d: %w", i, err)
			}
			dsts[j] = row
		}
		switch op.Kind {
		case uprog.OpAAP:
			src, err := resolve(b, op.Src, rm)
			if err != nil {
				return fmt.Errorf("testoracle: op %d: %w", i, err)
			}
			AAP(sa, src, dsts...)
		case uprog.OpAP:
			AP(sa, t[0], t[1], t[2])
		case uprog.OpMajCopy:
			MajCopy(sa, t[0], t[1], t[2], dsts...)
		default:
			return fmt.Errorf("testoracle: op %d: unknown kind %d", i, op.Kind)
		}
	}
	return nil
}

// CheckProgram checks a synthesized μProgram's invariants against a
// device configuration: every reference inside its region or the
// geometry, 1-3 destinations per copy, distinct T rows per triple-row
// activation, and no write into a source operand or a control row.
// Templates accept programs that write their sources (they leave such
// a plan unlowered); synthesis never emits one.
func CheckProgram(p *uprog.Program, cfg dram.Config) error {
	if p.Width < 1 || p.Width > 64 {
		return fmt.Errorf("testoracle: width %d out of range", p.Width)
	}
	for i, op := range p.Ops {
		switch op.Kind {
		case uprog.OpAAP:
			if len(op.Dsts) < 1 || len(op.Dsts) > 3 {
				return fmt.Errorf("testoracle: op %d: AAP with %d destinations", i, len(op.Dsts))
			}
			if err := checkRef(p, op.Src, cfg, true); err != nil {
				return fmt.Errorf("testoracle: op %d src: %w", i, err)
			}
			for _, d := range op.Dsts {
				if err := checkRef(p, d, cfg, false); err != nil {
					return fmt.Errorf("testoracle: op %d dst: %w", i, err)
				}
				if d.Space == uprog.SpaceSrc {
					return fmt.Errorf("testoracle: op %d writes a source operand row", i)
				}
				if d.Space == uprog.SpaceC0 || d.Space == uprog.SpaceC1 {
					return fmt.Errorf("testoracle: op %d writes a control row", i)
				}
			}
		case uprog.OpAP, uprog.OpMajCopy:
			seen := map[int]bool{}
			for _, tr := range op.T {
				if tr < 0 || tr >= cfg.NumTRows {
					return fmt.Errorf("testoracle: op %d: T row %d out of range", i, tr)
				}
				if seen[tr] {
					return fmt.Errorf("testoracle: op %d: duplicate T row %d", i, tr)
				}
				seen[tr] = true
			}
			if op.Kind == uprog.OpMajCopy {
				if len(op.Dsts) < 1 || len(op.Dsts) > 3 {
					return fmt.Errorf("testoracle: op %d: MajCopy with %d destinations", i, len(op.Dsts))
				}
				for _, d := range op.Dsts {
					if err := checkRef(p, d, cfg, false); err != nil {
						return fmt.Errorf("testoracle: op %d dst: %w", i, err)
					}
					if d.Space == uprog.SpaceSrc || d.Space == uprog.SpaceC0 || d.Space == uprog.SpaceC1 {
						return fmt.Errorf("testoracle: op %d writes a read-only row", i)
					}
				}
			}
		default:
			return fmt.Errorf("testoracle: op %d: unknown kind %d", i, op.Kind)
		}
	}
	return nil
}

func checkRef(p *uprog.Program, r uprog.Ref, cfg dram.Config, isSrc bool) error {
	switch r.Space {
	case uprog.SpaceSrc:
		if r.Op < 0 || r.Op >= p.NumSrc {
			return fmt.Errorf("operand %d out of range [0,%d)", r.Op, p.NumSrc)
		}
		if r.Idx < 0 || r.Idx >= p.SrcWidth(r.Op) {
			return fmt.Errorf("source bit %d out of range [0,%d)", r.Idx, p.SrcWidth(r.Op))
		}
	case uprog.SpaceDst:
		if r.Idx < 0 || r.Idx >= p.DstWidth {
			return fmt.Errorf("destination bit %d out of range [0,%d)", r.Idx, p.DstWidth)
		}
	case uprog.SpaceScratch:
		if r.Idx < 0 || r.Idx >= p.NumScratch {
			return fmt.Errorf("scratch row %d out of range [0,%d)", r.Idx, p.NumScratch)
		}
	case uprog.SpaceT:
		if r.Idx < 0 || r.Idx >= cfg.NumTRows {
			return fmt.Errorf("T row %d out of range [0,%d)", r.Idx, cfg.NumTRows)
		}
	case uprog.SpaceDCC, uprog.SpaceDCCN:
		if r.Idx < 0 || r.Idx >= cfg.NumDCCPairs {
			return fmt.Errorf("DCC pair %d out of range [0,%d)", r.Idx, cfg.NumDCCPairs)
		}
	case uprog.SpaceC0, uprog.SpaceC1:
		if !isSrc {
			return fmt.Errorf("control row used as destination")
		}
	default:
		return fmt.Errorf("unknown space %d", r.Space)
	}
	return nil
}

// resolve maps a symbolic reference to its physical row under b.
func resolve(b uprog.Binding, r uprog.Ref, rm dram.RowMap) (int, error) {
	switch r.Space {
	case uprog.SpaceSrc:
		if r.Op < 0 || r.Op >= len(b.SrcBase) {
			return 0, fmt.Errorf("binding has no base for operand %d", r.Op)
		}
		return b.SrcBase[r.Op] + r.Idx, nil
	case uprog.SpaceDst:
		return b.DstBase + r.Idx, nil
	case uprog.SpaceScratch:
		return b.ScratchBase + r.Idx, nil
	case uprog.SpaceT:
		if row, ok := rm.TRow(r.Idx); ok {
			return int(row), nil
		}
		return 0, fmt.Errorf("T row %d out of range", r.Idx)
	case uprog.SpaceDCC, uprog.SpaceDCCN:
		if row, ok := rm.DCCRow(r.Idx, r.Space == uprog.SpaceDCCN); ok {
			return int(row), nil
		}
		return 0, fmt.Errorf("DCC pair %d out of range", r.Idx)
	case uprog.SpaceC0:
		return int(rm.C0), nil
	case uprog.SpaceC1:
		return int(rm.C0 + 1), nil
	default:
		return 0, fmt.Errorf("unknown space %v", r.Space)
	}
}

// AAP issues ACTIVATE(src) → ACTIVATE(dsts) → PRECHARGE on sa, copying
// the source row into every destination: one row anywhere, or 2-3 rows
// of the compute region.
func AAP(sa *dram.Subarray, src int, dsts ...int) {
	exec1(sa, dram.Op{Kind: dram.CmdAAP, Src: dram.OpRow(src)}, dsts)
}

// AP issues a triple-row activation and precharge of three T rows,
// leaving their bitwise majority in all three.
func AP(sa *dram.Subarray, r0, r1, r2 int) {
	exec1(sa, dram.Op{Kind: dram.CmdAP, T: [3]int32{dram.OpRow(r0), dram.OpRow(r1), dram.OpRow(r2)}}, nil)
}

// MajCopy issues Ambit's fused compute-and-copy: the majority of three
// T rows, restored into them and copied into the destinations.
func MajCopy(sa *dram.Subarray, r0, r1, r2 int, dsts ...int) {
	exec1(sa, dram.Op{Kind: dram.CmdMajCopy, T: [3]int32{dram.OpRow(r0), dram.OpRow(r1), dram.OpRow(r2)}}, dsts)
}

// exec1 checks one command against sa's row map and runs it as a
// one-op, unlowered plan. A command the DRAM rules refuse panics.
func exec1(sa *dram.Subarray, op dram.Op, dsts []int) {
	op.NDst = uint8(min(len(dsts), 255))
	for j := 0; j < len(dsts) && j < len(op.Dsts); j++ {
		op.Dsts[j] = dram.OpRow(dsts[j])
	}
	rm := sa.RowMap()
	if err := rm.CheckOp(&op); err != nil {
		panic(err)
	}
	p := rm.Plan([]dram.Op{op}, false)
	sa.Exec(&p)
}

// EvalBits evaluates a bit-parallel evaluator (logic.Circuit.EvalWords,
// mig.MIG.EvalWords) on one boolean assignment.
func EvalBits(eval func([]uint64) []uint64, inputs []bool) []bool {
	words := make([]uint64, len(inputs))
	for i, b := range inputs {
		if b {
			words[i] = ^uint64(0)
		}
	}
	res := eval(words)
	out := make([]bool, len(res))
	for i, w := range res {
		out[i] = w&1 == 1
	}
	return out
}

// EvalUint treats an evaluator's inputs as little-endian buses of the
// given widths, evaluates it on the packed values and returns the
// outputs packed the same way using outWidths.
func EvalUint(eval func([]uint64) []uint64, widths []int, values []uint64, outWidths []int) []uint64 {
	if len(widths) != len(values) {
		panic("testoracle: EvalUint: len(widths) != len(values)")
	}
	var bits []uint64
	for i, w := range widths {
		for b := 0; b < w; b++ {
			bits = append(bits, (values[i]>>uint(b))&1*^uint64(0))
		}
	}
	res := eval(bits)
	outTotal := 0
	for _, w := range outWidths {
		outTotal += w
	}
	if outTotal != len(res) {
		panic(fmt.Sprintf("testoracle: EvalUint: out widths sum to %d, evaluator has %d outputs", outTotal, len(res)))
	}
	out := make([]uint64, len(outWidths))
	pos := 0
	for i, w := range outWidths {
		for b := 0; b < w; b++ {
			out[i] |= (res[pos] & 1) << uint(b)
			pos++
		}
	}
	return out
}

// VerifyAgainstCircuit checks, by randomized 64-lane simulation, that the
// MIG computes the same function as the source circuit. trials is the
// number of random 64-assignment batches (so trials×64 assignments are
// checked; small input counts are checked exhaustively instead).
func VerifyAgainstCircuit(m *mig.MIG, c *logic.Circuit, trials int, seed int64) error {
	if m.NumInputs() != len(c.Inputs) {
		return fmt.Errorf("testoracle: input count mismatch: mig=%d circuit=%d", m.NumInputs(), len(c.Inputs))
	}
	if len(m.Outputs()) != len(c.Outputs) {
		return fmt.Errorf("testoracle: output count mismatch: mig=%d circuit=%d", len(m.Outputs()), len(c.Outputs))
	}
	n := m.NumInputs()
	if n <= 16 {
		return verifyExhaustive(m, c)
	}
	rng := rand.New(rand.NewSource(seed))
	in := make([]uint64, n)
	for t := 0; t < trials; t++ {
		for i := range in {
			in[i] = rng.Uint64()
		}
		got := m.EvalWords(in)
		want := c.EvalWords(in)
		for o := range want {
			if got[o] != want[o] {
				return fmt.Errorf("testoracle: output %d mismatch on trial %d: got %#x want %#x", o, t, got[o], want[o])
			}
		}
	}
	return nil
}

func verifyExhaustive(m *mig.MIG, c *logic.Circuit) error {
	n := m.NumInputs()
	total := uint64(1) << uint(n)
	in := make([]uint64, n)
	for base := uint64(0); base < total; base += 64 {
		for i := range in {
			var w uint64
			for lane := uint64(0); lane < 64 && base+lane < total; lane++ {
				bit := ((base + lane) >> uint(i)) & 1
				w |= bit << lane
			}
			in[i] = w
		}
		got := m.EvalWords(in)
		want := c.EvalWords(in)
		lanes := total - base
		if lanes > 64 {
			lanes = 64
		}
		mask := ^uint64(0)
		if lanes < 64 {
			mask = (uint64(1) << lanes) - 1
		}
		for o := range want {
			if got[o]&mask != want[o]&mask {
				return fmt.Errorf("testoracle: output %d mismatch near assignment %d", o, base)
			}
		}
	}
	return nil
}

// VerifyEquivalent checks two MIGs compute the same function by randomized
// simulation (exhaustive for ≤16 inputs).
func VerifyEquivalent(a, b *mig.MIG, trials int, seed int64) error {
	if a.NumInputs() != b.NumInputs() || len(a.Outputs()) != len(b.Outputs()) {
		return fmt.Errorf("testoracle: shape mismatch")
	}
	n := a.NumInputs()
	rng := rand.New(rand.NewSource(seed))
	in := make([]uint64, n)
	check := func() error {
		ra := a.EvalWords(in)
		rb := b.EvalWords(in)
		for o := range ra {
			if ra[o] != rb[o] {
				return fmt.Errorf("testoracle: output %d differs", o)
			}
		}
		return nil
	}
	if n <= 6 {
		// One 64-lane eval covers everything.
		for i := range in {
			var w uint64
			for lane := uint64(0); lane < 64; lane++ {
				w |= ((lane >> uint(i)) & 1) << lane
			}
			in[i] = w
		}
		return check()
	}
	for t := 0; t < trials; t++ {
		for i := range in {
			in[i] = rng.Uint64()
		}
		if err := check(); err != nil {
			return fmt.Errorf("trial %d: %w", t, err)
		}
	}
	return nil
}

// Diagnostics unpacks every *verify.Diagnostic joined into err, in the
// order the verifier found them. Nil for a nil error.
func Diagnostics(err error) []*verify.Diagnostic {
	type unwrapper interface{ Unwrap() []error }
	var out []*verify.Diagnostic
	var walk func(error)
	walk = func(e error) {
		if u, ok := e.(unwrapper); ok {
			for _, sub := range u.Unwrap() {
				walk(sub)
			}
			return
		}
		var d *verify.Diagnostic
		if errors.As(e, &d) {
			out = append(out, d)
		}
	}
	if err != nil {
		walk(err)
	}
	return out
}
