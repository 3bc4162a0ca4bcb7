// Package la provides the dense linear-algebra substrate used throughout
// rbcflow: vector kernels, small dense matrices with LU factorization, and a
// restarted GMRES solver with optional distributed inner products.
//
// The paper offloads these operations to PETSc and Intel MKL; rbcflow is
// stdlib-only, so the same functionality is implemented here directly. Sizes
// are moderate (per-cell systems and Krylov bases), so straightforward
// cache-friendly loops are sufficient.
package la

import "math"

// Dot returns the Euclidean inner product of x and y.
// The slices must have equal length.
func Dot(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y []float64) {
	for i, v := range x {
		y[i] += a * v
	}
}

// Scale multiplies x by a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Copy copies src into dst (lengths must match).
func Copy(dst, src []float64) {
	copy(dst, src)
}

// Zero sets all entries of x to zero.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Add computes dst = x + y elementwise.
func Add(dst, x, y []float64) {
	for i := range dst {
		dst[i] = x[i] + y[i]
	}
}

// Sub computes dst = x - y elementwise.
func Sub(dst, x, y []float64) {
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}
