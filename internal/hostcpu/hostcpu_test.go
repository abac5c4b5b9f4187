package hostcpu

import "testing"

// TestFeaturePredicates holds the AVX2 and AVX-512 checks to register
// values of CPUs and operating systems that offer each, both or only
// part of what a check needs.
func TestFeaturePredicates(t *testing.T) {
	const (
		cpu1    = osxsave | avx
		avxOS   = xmmYmm | 1     // x87, XMM and YMM state
		zmmOS   = avxOS | zmm    // and opmask and ZMM state
		both7   = avx2 | avx512f // CPUID.7.0:EBX of an AVX-512 CPU
		leaf7   = 0xd            // a CPU reporting leaves up to 0xd
		noLeaf7 = 6
	)
	for _, tc := range []struct {
		name         string
		r            regs
		avx2, avx512 bool
	}{
		{"AVX2 and AVX-512F, OS saves ZMM", regs{leaf7, cpu1, both7, zmmOS}, true, true},
		{"AVX2 only", regs{leaf7, cpu1, avx2, avxOS}, true, false},
		{"AVX2 only, OS saves ZMM", regs{leaf7, cpu1, avx2, zmmOS}, true, false},
		{"AVX-512F without OS ZMM state", regs{leaf7, cpu1, both7, avxOS}, true, false},
		{"AVX-512F, OS saves ZMM but not opmask", regs{leaf7, cpu1, both7, avxOS | 1<<6 | 1<<7}, true, false},
		{"AVX-512F, OS saves ZMM0-15 but not ZMM16-31", regs{leaf7, cpu1, both7, avxOS | 1<<5 | 1<<6}, true, false},
		{"AVX-512F, OS saves ZMM but not YMM", regs{leaf7, cpu1, both7, zmmOS &^ (1 << 2)}, false, false},
		{"OS state without AVX-512F or AVX2", regs{leaf7, cpu1, 0, zmmOS}, false, false},
		{"no OSXSAVE", regs{leaf7, avx, both7, 0}, false, false},
		{"OS saves no YMM state", regs{leaf7, cpu1, both7, 1 | 1<<1}, false, false},
		{"CPUID has no leaf 7", regs{noLeaf7, cpu1, 0, zmmOS}, false, false},
		{"nothing", regs{}, false, false},
	} {
		if got := hasAVX2(tc.r); got != tc.avx2 {
			t.Errorf("%s: hasAVX2(%+v) = %v, want %v", tc.name, tc.r, got, tc.avx2)
		}
		if got := hasAVX512(tc.r); got != tc.avx512 {
			t.Errorf("%s: hasAVX512(%+v) = %v, want %v", tc.name, tc.r, got, tc.avx512)
		}
	}
}
