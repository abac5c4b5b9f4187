package isa

import "math/bits"

// HandleSet is a set of object handles, one bit per handle of the
// 16-bit handle space, that also numbers its members densely in
// ascending handle order without sorting or hashing: Seal counts the
// members in the words before each word, and a member's rank is that
// count plus the members under it in its own word. A summary bit per
// word marks the words holding members, so Seal, Append and Reset
// visit only those — a program's handles sit in a few words however
// far apart the words are. The zero value is empty, and one HandleSet
// serves many programs.
type HandleSet struct {
	members [1 << 16 / 64]uint64
	below   [1 << 16 / 64]int32
	words   [1 << 16 / 64 / 64]uint64 // bit w: members[w] is non-zero
}

// Mark adds h to the set. Handles added after Seal are not ranked
// until the next Seal.
//
//simdram:zeroalloc
func (s *HandleSet) Mark(h uint16) {
	s.members[h/64] |= 1 << (h % 64)
	s.words[h/64/64] |= 1 << (h / 64 % 64)
}

// MarkNamed marks every handle p's instructions name: the announced
// object of a bbop_trsp_init, and the destination and all three
// source slots of any other instruction (unused slots hold handle 0).
//
//simdram:zeroalloc
func (s *HandleSet) MarkNamed(p Program) {
	for i := range p {
		in := &p[i]
		s.Mark(in.Src[0])
		if in.Op != OpTrspInit {
			s.Mark(in.Dst)
			s.Mark(in.Src[1])
			s.Mark(in.Src[2])
		}
	}
}

// Seal ranks the members and returns how many there are.
//
//simdram:zeroalloc
func (s *HandleSet) Seal() int {
	n := int32(0)
	for i, sum := range s.words {
		for b := sum; b != 0; b &= b - 1 {
			w := i*64 + bits.TrailingZeros64(b)
			s.below[w] = n
			n += int32(bits.OnesCount64(s.members[w]))
		}
	}
	return int(n)
}

// Has reports whether h is a member.
func (s *HandleSet) Has(h uint16) bool { return s.members[h/64]&(1<<(h%64)) != 0 }

// Of returns the rank of a member: how many members are smaller, as
// of the last Seal. It is meaningless for a non-member.
//
//simdram:zeroalloc
func (s *HandleSet) Of(h uint16) int {
	w := h / 64
	return int(s.below[w]) + bits.OnesCount64(s.members[w]&(1<<(h%64)-1))
}

// Append appends the members to hs in ascending order.
func (s *HandleSet) Append(hs []uint16) []uint16 {
	for i, sum := range s.words {
		for b := sum; b != 0; b &= b - 1 {
			w := i*64 + bits.TrailingZeros64(b)
			for m := s.members[w]; m != 0; m &= m - 1 {
				hs = append(hs, uint16(w*64+bits.TrailingZeros64(m)))
			}
		}
	}
	return hs
}

// Reset empties the set.
func (s *HandleSet) Reset() {
	for i, sum := range s.words {
		for b := sum; b != 0; b &= b - 1 {
			s.members[i*64+bits.TrailingZeros64(b)] = 0
		}
	}
	s.words = [len(s.words)]uint64{}
}
