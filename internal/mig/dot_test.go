package mig_test

import (
	"bytes"
	"strings"
	"testing"

	"simdram/internal/mig"
)

func TestWriteDOT(t *testing.T) {
	m := mig.New(3)
	a, b, c := m.Input(0), m.Input(1), m.Input(2)
	m.SetInputName(0, "a")
	x := m.Maj(a, b.Not(), c)
	_ = m.And(a, b) // dead: must not appear
	m.AddOutput(x.Not(), "out")
	var buf bytes.Buffer
	if err := m.WriteDOT(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"digraph", "MAJ", "dashed", "lightblue", `label="a"`} {
		if !strings.Contains(s, want) {
			t.Errorf("DOT missing %q:\n%s", want, s)
		}
	}
	if strings.Count(s, `label="MAJ"`) != 1 {
		t.Errorf("dead MAJ node leaked into DOT:\n%s", s)
	}
}
