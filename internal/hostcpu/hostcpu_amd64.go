package hostcpu

// host is this CPU's feature registers, read once.
var host = readRegs()

// AVX2 reports AVX2 support, from CPUID and from XGETBV for the
// operating system saving the YMM registers.
var AVX2 = hasAVX2(host)

// AVX512 reports AVX-512 Foundation support, from CPUID and from
// XGETBV for the operating system saving the opmask and ZMM registers.
var AVX512 = hasAVX512(host)

// readRegs reads the registers the feature checks test. XGETBV faults
// unless the OS enabled it, which CPUID.1:ECX.OSXSAVE reports.
func readRegs() (r regs) {
	r.maxLeaf, _, _, _ = cpuid(0, 0)
	_, _, r.ecx1, _ = cpuid(1, 0)
	if r.maxLeaf >= 7 {
		_, r.ebx7, _, _ = cpuid(7, 0)
	}
	if r.ecx1&osxsave != 0 {
		r.xcr0, _ = xgetbv()
	}
	return r
}

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0, which says which register
// states the operating system saves.
func xgetbv() (eax, edx uint32)
