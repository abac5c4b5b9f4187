package lib

import (
	"testing"

	"simdram/internal/lint/testdata/src/testonly/internal/onlytests"
)

func TestLib(t *testing.T) {
	var m Meter
	m.Reset()
	if OnlyTests()+Limit+m.Peek()+Bare()+onlytests.Helper() == 0 {
		t.Fatal("unreachable")
	}
}
