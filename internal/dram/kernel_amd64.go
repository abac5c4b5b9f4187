package dram

// haveVector reports AVX2 support, from CPUID and from XGETBV for the
// operating system saving the YMM registers.
var haveVector = hasAVX2()

func hasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	if eax, _ := xgetbv(); eax&xmmYmm != xmmYmm {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0, which says which register
// states the operating system saves.
func xgetbv() (eax, edx uint32)

// majVector is majRow on AVX2 over d's first len(d)&^3 words; a, b and
// c hold at least len(d) words.
//
//go:noescape
func majVector(d, a, b, c []uint64, ma, mb, mc, md uint64)

// xorVector is xorRow on AVX2 over d's first len(d)&^3 words; s holds
// at least len(d) words.
//
//go:noescape
func xorVector(d, s []uint64, m uint64)
