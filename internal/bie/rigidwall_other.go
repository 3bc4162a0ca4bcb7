//go:build !amd64

package bie

const useAVX2 = false

func rigidWallBlockAVX2(g, y, f []float64, x, acc *[12]float64) {
	panic("bie: the AVX2 wall kernel exists on amd64 only")
}
