package bie

import "rbcflow/internal/cpuid"

// useAVX2 selects the assembly kernels, once, from what the CPU and the
// operating system support. Tests set it to false to run an operator on the
// portable loops.
var useAVX2 = cpuid.AVX2()

// rigidWallBlockAVX2 is rigidWallBlockGo in AVX2, one target per lane, with
// the Go statement's operations in the same order and no FMA, so its sums
// are the same bits; rigidwall_amd64.s.
//
//go:noescape
func rigidWallBlockAVX2(g, y, f []float64, x, acc *[12]float64)

// corrBlockAVX2 is corrBlockGo in AVX2, one target per lane, in the Go
// statement's order and without FMA; near_amd64.s.
//
//go:noescape
func corrBlockAVX2(m, phi []float64, acc *[12]float64)

// integrateVelAVX2 is integrateVelGo from node 0 in AVX2, four nodes per
// pass over n-node planes, the products in the Go statement's order and the
// sum in node order, without FMA or an approximate reciprocal. It stops
// before the first group of four holding a node at the target and returns
// the number of nodes it added; near_amd64.s.
//
//go:noescape
func integrateVelAVX2(q, ph []float64, n int, x, a *[3]float64) int

// integrateBlockAVX2 is integrateBlockGo for the 6×6 rule in AVX2: the
// kernel four nodes at a time, stage 1 four coarse v-nodes at a time in node
// order, stage 2 four at a time in row order, without FMA or an approximate
// reciprocal. kp (symPlanes·36 values) and m1 (symPlanes·6·4⌈qc/4⌉) are its
// scratch; near_amd64.s.
//
//go:noescape
func integrateBlockAVX2(q, cv, cu, kp, m1, m []float64, qc int, x *[3]float64)
