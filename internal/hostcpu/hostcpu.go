// Package hostcpu reports the vector instructions the host CPU offers,
// read once at start-up, for the packages that carry assembly loops.
package hostcpu

// regs holds the CPUID and XGETBV values the feature checks read.
type regs struct {
	maxLeaf uint32 // CPUID.0:EAX, the highest standard leaf
	ecx1    uint32 // CPUID.1:ECX
	ebx7    uint32 // CPUID.7.0:EBX, zero when maxLeaf < 7
	xcr0    uint32 // XCR0's low word, zero without OSXSAVE
}

// CPUID.1:ECX, CPUID.7.0:EBX and XCR0 bits the checks test.
const (
	osxsave = 1 << 27 // CPUID.1:ECX: XGETBV is enabled
	avx     = 1 << 28 // CPUID.1:ECX

	avx2    = 1 << 5  // CPUID.7.0:EBX
	avx512f = 1 << 16 // CPUID.7.0:EBX

	xmmYmm = 1<<1 | 1<<2        // XCR0: the OS saves the XMM and YMM state
	zmm    = 1<<5 | 1<<6 | 1<<7 // XCR0: the OS saves opmask, ZMM0–15's upper halves and ZMM16–31
)

// hasAVX2 reports AVX2, with the operating system saving the YMM
// registers.
func hasAVX2(r regs) bool {
	return r.maxLeaf >= 7 &&
		r.ecx1&(osxsave|avx) == osxsave|avx &&
		r.xcr0&xmmYmm == xmmYmm &&
		r.ebx7&avx2 != 0
}

// hasAVX512 reports AVX-512 Foundation, with the operating system
// saving the opmask and ZMM registers as well as the YMM ones.
func hasAVX512(r regs) bool {
	return r.maxLeaf >= 7 &&
		r.ecx1&osxsave != 0 &&
		r.xcr0&(xmmYmm|zmm) == xmmYmm|zmm &&
		r.ebx7&avx512f != 0
}
