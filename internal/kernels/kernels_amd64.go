package kernels

import "rbcflow/internal/cpuid"

// useAVX2 selects the assembly Stokeslet kernel, once, from what the CPU
// and the operating system support. Tests set it to false to run the
// portable loop.
var useAVX2 = cpuid.AVX2()

// stokesletGroupsAVX2 is stokesletBlockGo in AVX2 over the lane groups of
// p (24 values each, see stokesletBlockLanes): per source, the Go
// statement's operations in its order, exact square root and division, no
// FMA, and a lane at r² = 0 keeps its sums; stokeslet_amd64.s.
//
//go:noescape
func stokesletGroupsAVX2(p []float64, srcPos [][3]float64, srcQ []float64, c float64)
