package cpuid

// cpuid executes CPUID with the given leaf and sub-leaf; cpuid_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0; cpuid_amd64.s.
func xgetbv() (eax, edx uint32)

// detectAVX2 follows the Intel SDM recipe: AVX and OSXSAVE in leaf 1, the OS
// saving the XMM and YMM state (XCR0 bits 1 and 2), and AVX2 in leaf 7.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
