//go:build !amd64

package rbc

// useAVX2 is false off amd64: the portable loops are the only self-operator
// kernels.
var useAVX2 = false

func rotateAVX2(dst [][4]float64, rmat []float64, src [][4]float64) {
	panic("rbc: the AVX2 rotation kernel exists on amd64 only")
}

func rowsAVX2(rows, rmat []float64, m [][6]float64) {
	panic("rbc: the AVX2 row kernel exists on amd64 only")
}

func applyAVX2(u0, u1, u2, s, f0, f1, f2 []float64) {
	panic("rbc: the AVX2 apply kernel exists on amd64 only")
}
