// Package cpuid reports the vector instruction sets a hand-written kernel
// may use on this machine. It is read once, at start-up; nothing chooses a
// kernel by hand.
package cpuid

// avx2 is set once, at package initialisation.
var avx2 = detectAVX2()

// AVX2 reports whether the CPU executes AVX2 instructions and the operating
// system saves the YMM registers across context switches.
func AVX2() bool { return avx2 }
