//go:build !amd64

package bie

// useAVX2 is false off amd64: the portable loops are the only kernels.
var useAVX2 = false

func rigidWallBlockAVX2(g, y, f []float64, x, acc *[12]float64) {
	panic("bie: the AVX2 wall kernel exists on amd64 only")
}

func corrBlockAVX2(m, phi []float64, acc *[12]float64) {
	panic("bie: the AVX2 near-pass kernel exists on amd64 only")
}

func integrateVelAVX2(q, ph []float64, n int, x, a *[3]float64) int {
	panic("bie: the AVX2 quadrature kernel exists on amd64 only")
}

func integrateBlockAVX2(q, cv, cu, kp, m1, m []float64, qc int, x *[3]float64) {
	panic("bie: the AVX2 block kernel exists on amd64 only")
}
