package logic

import "fmt"

// EvalWords evaluates the circuit bit-parallel over 64 lanes at once.
// inputs[i] is the word for declared input i (one bit per lane). The
// result has one word per declared output, in declaration order.
//
// This mirrors SIMDRAM's execution model: every bit position of a word is
// an independent SIMD lane, exactly as every bitline of a DRAM subarray is
// an independent lane.
//
//simdram:testapi the functional model of a Step 1 circuit, which synthesis is checked against
func (c *Circuit) EvalWords(inputs []uint64) []uint64 {
	if len(inputs) != len(c.Inputs) {
		panic(fmt.Sprintf("logic: EvalWords: want %d input words, have %d", len(c.Inputs), len(inputs)))
	}
	val := make([]uint64, len(c.Nodes))
	in := 0
	for i, n := range c.Nodes {
		switch n.Kind {
		case KindInput:
			val[i] = inputs[in]
			in++
		case KindConst:
			if n.Value {
				val[i] = ^uint64(0)
			}
		case KindNot:
			val[i] = ^val[n.Fanins[0]]
		case KindAnd:
			v := ^uint64(0)
			for _, f := range n.Fanins {
				v &= val[f]
			}
			val[i] = v
		case KindOr:
			v := uint64(0)
			for _, f := range n.Fanins {
				v |= val[f]
			}
			val[i] = v
		case KindXor:
			v := uint64(0)
			for _, f := range n.Fanins {
				v ^= val[f]
			}
			val[i] = v
		case KindMaj:
			a, b, d := val[n.Fanins[0]], val[n.Fanins[1]], val[n.Fanins[2]]
			val[i] = (a & b) | (a & d) | (b & d)
		case KindMux:
			s, t, f := val[n.Fanins[0]], val[n.Fanins[1]], val[n.Fanins[2]]
			val[i] = (s & t) | (^s & f)
		default:
			panic(fmt.Sprintf("logic: EvalWords: unknown kind %v", n.Kind))
		}
	}
	out := make([]uint64, len(c.Outputs))
	for i, o := range c.Outputs {
		out[i] = val[o]
	}
	return out
}
