package isa_test

import (
	"math/rand"
	"slices"
	"testing"

	"simdram/internal/isa"
)

// TestHandleSetRanks checks HandleSet against a sorted, deduplicated
// slice: membership, ranks and ascending order over random sets that
// span the whole handle space, with one set reused through Reset.
func TestHandleSetRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s isa.HandleSet
	for trial := 0; trial < 200; trial++ {
		var want []uint16
		for range rng.Intn(300) {
			h := uint16(rng.Intn(1 << 16))
			if rng.Intn(2) == 0 {
				h = uint16(rng.Intn(200)) // clustered, like a System's live handles
			}
			s.Mark(h)
			want = append(want, h)
		}
		slices.Sort(want)
		want = slices.Compact(want)
		if n := s.Seal(); n != len(want) {
			t.Fatalf("trial %d: Seal = %d, want %d", trial, n, len(want))
		}
		if got := s.Append(nil); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Append = %v, want %v", trial, got, want)
		}
		for r, h := range want {
			if !s.Has(h) || s.Of(h) != r {
				t.Fatalf("trial %d: handle %d: Has %v, Of %d, want rank %d", trial, h, s.Has(h), s.Of(h), r)
			}
		}
		for range 20 {
			h := uint16(rng.Intn(1 << 16))
			if _, found := slices.BinarySearch(want, h); found != s.Has(h) {
				t.Fatalf("trial %d: Has(%d) = %v", trial, h, s.Has(h))
			}
		}
		s.Reset()
		if s.Seal() != 0 || len(s.Append(nil)) != 0 {
			t.Fatalf("trial %d: set not empty after Reset", trial)
		}
	}
}
