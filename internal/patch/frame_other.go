//go:build !amd64

package patch

// useAVX2 is false off amd64: the portable loop is the only frame kernel.
var useAVX2 = false

func tensorFrameAVX2(val [][3]float64, lu, lv, wu, wv, t, q []float64, n int, scale float64) {
	panic("patch: the AVX2 frame kernel exists on amd64 only")
}

func tensorEval3AVX2(val [][3]float64, lu, lv, t []float64, n int, pos [][3]float64) {
	panic("patch: the AVX2 sample kernel exists on amd64 only")
}
