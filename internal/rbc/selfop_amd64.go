package rbc

import "rbcflow/internal/cpuid"

// useAVX2 selects the assembly self-operator kernels, once, from what the
// CPU and the operating system support. Tests set it to false to run the
// portable loops.
var useAVX2 = cpuid.AVX2()

// rotateAVX2 is rotateGo in AVX2: a node's four fields in the four lanes,
// four rows of R per pass, each sum from +0 in k order, no FMA;
// selfop_amd64.s.
//
//go:noescape
func rotateAVX2(dst [][4]float64, rmat []float64, src [][4]float64)

// rowsAVX2 is rowsGo in AVX2 with the loops swapped: four consecutive k in
// the lanes and the six sums in registers, each still over r in order, the
// pair of rows summed before it is added, no FMA; selfop_amd64.s.
//
//go:noescape
func rowsAVX2(rows, rmat []float64, m [][6]float64)

// applyAVX2 is applyGo in AVX2: the four targets of a group in the lanes,
// the three components a side by side, each sum over b then k in order, no
// FMA; selfop_amd64.s.
//
//go:noescape
func applyAVX2(u0, u1, u2, s, f0, f1, f2 []float64)
