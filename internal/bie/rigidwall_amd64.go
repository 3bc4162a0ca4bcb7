package bie

import "rbcflow/internal/cpuid"

// useAVX2 selects the assembly kernel, once, from what the CPU and the
// operating system support.
var useAVX2 = cpuid.AVX2()

// rigidWallBlockAVX2 is rigidWallBlockGo in AVX2, one target per lane, with
// the Go statement's operations in the same order and no FMA, so its sums
// are the same bits; rigidwall_amd64.s.
//
//go:noescape
func rigidWallBlockAVX2(g, y, f []float64, x, acc *[12]float64)
