package mig

import (
	"fmt"
	"testing"
)

// Snapshot returns a copy of m rebuilt with no rewrite rule.
func Snapshot(m *MIG) *MIG { return m.rebuild(nil) }

// Validate checks structural invariants.
func (m *MIG) Validate() error {
	if len(m.nodes) == 0 || !m.nodes[0].isLeaf() {
		return fmt.Errorf("mig: missing constant node")
	}
	for i, n := range m.nodes {
		if i <= m.numInputs {
			if !n.isLeaf() {
				return fmt.Errorf("mig: node %d should be a leaf", i)
			}
			continue
		}
		if n.isLeaf() {
			return fmt.Errorf("mig: node %d is an unexpected leaf", i)
		}
		for _, l := range [3]Lit{n.a, n.b, n.c} {
			if l.Node() >= i {
				return fmt.Errorf("mig: node %d references non-earlier node %d", i, l.Node())
			}
		}
	}
	for i, o := range m.outputs {
		if o.Node() >= len(m.nodes) {
			return fmt.Errorf("mig: output %d references missing node %d", i, o.Node())
		}
	}
	return nil
}

func TestValidateDetectsCorruption(t *testing.T) {
	m := New(2)
	a, b := m.Input(0), m.Input(1)
	x := m.Maj(a, b, ConstTrue)
	m.AddOutput(x, "x")
	if err := m.Validate(); err != nil {
		t.Fatalf("valid MIG rejected: %v", err)
	}
	m.nodes[x.Node()].a = MakeLit(x.Node(), false)
	if err := m.Validate(); err == nil {
		t.Error("self-referencing node must not validate")
	}
}
