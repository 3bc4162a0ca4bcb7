//go:build !amd64

package kernels

// useAVX2 is false off amd64: the portable loop is the only Stokeslet
// block kernel.
var useAVX2 = false

func stokesletGroupsAVX2(p []float64, srcPos [][3]float64, srcQ []float64, c float64) {
	panic("kernels: the AVX2 Stokeslet kernel exists on amd64 only")
}
