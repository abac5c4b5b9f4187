package mig

import "fmt"

// EvalWords evaluates the MIG bit-parallel over 64 lanes. inputs[i] feeds
// primary input i; the result has one word per output.
//
//simdram:testapi evaluates the unexported node list, the model MIG synthesis is checked against
func (m *MIG) EvalWords(inputs []uint64) []uint64 {
	if len(inputs) != m.numInputs {
		panic(fmt.Sprintf("mig: EvalWords: want %d inputs, have %d", m.numInputs, len(inputs)))
	}
	val := make([]uint64, len(m.nodes))
	val[0] = 0
	copy(val[1:], inputs)
	for i := m.numInputs + 1; i < len(m.nodes); i++ {
		n := m.nodes[i]
		a := litWord(val, n.a)
		b := litWord(val, n.b)
		c := litWord(val, n.c)
		val[i] = (a & b) | (a & c) | (b & c)
	}
	out := make([]uint64, len(m.outputs))
	for i, o := range m.outputs {
		out[i] = litWord(val, o)
	}
	return out
}

func litWord(val []uint64, l Lit) uint64 {
	w := val[l.Node()]
	if l.Neg() {
		return ^w
	}
	return w
}
