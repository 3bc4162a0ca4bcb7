// Package fft implements the discrete Fourier transforms used by the
// spherical harmonic machinery (uniform longitude grids on RBC surfaces).
// Power-of-two sizes use an iterative radix-2 Cooley–Tukey transform; other
// sizes fall back to a direct O(n²) DFT, which is acceptable at the small
// grid sizes involved.
package fft

import "math"

// Forward computes the unnormalized forward DFT of the complex sequence
// (re, im) in place: X[k] = Σ_j x[j] exp(-2πi jk / n).
func Forward(re, im []float64) {
	transform(re, im, -1)
}

// Inverse computes the unnormalized inverse DFT in place:
// x[j] = Σ_k X[k] exp(+2πi jk / n). Dividing by n recovers the original
// sequence after Forward.
func Inverse(re, im []float64) {
	transform(re, im, +1)
}

func transform(re, im []float64, sign float64) {
	n := len(re)
	if n != len(im) {
		panic("fft: length mismatch")
	}
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		radix2(re, im, sign)
		return
	}
	dft(re, im, sign)
}

func radix2(re, im []float64, sign float64) {
	n := len(re)
	// Bit reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wRe, wIm := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += length {
			curRe, curIm := 1.0, 0.0
			half := length / 2
			for k := 0; k < half; k++ {
				i0, i1 := start+k, start+k+half
				tRe := re[i1]*curRe - im[i1]*curIm
				tIm := re[i1]*curIm + im[i1]*curRe
				re[i1] = re[i0] - tRe
				im[i1] = im[i0] - tIm
				re[i0] += tRe
				im[i0] += tIm
				curRe, curIm = curRe*wRe-curIm*wIm, curRe*wIm+curIm*wRe
			}
		}
	}
}

func dft(re, im []float64, sign float64) {
	n := len(re)
	outRe := make([]float64, n)
	outIm := make([]float64, n)
	for k := 0; k < n; k++ {
		var sr, si float64
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(j) * float64(k) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			sr += re[j]*c - im[j]*s
			si += re[j]*s + im[j]*c
		}
		outRe[k], outIm[k] = sr, si
	}
	copy(re, outRe)
	copy(im, outIm)
}

// RealForward computes the DFT of a real sequence x, returning the
// coefficients for frequencies 0..n/2 as (re, im) slices of length n/2+1.
// The remaining frequencies follow from conjugate symmetry.
func RealForward(x []float64) (re, im []float64) {
	n := len(x)
	fr := make([]float64, n)
	fi := make([]float64, n)
	copy(fr, x)
	Forward(fr, fi)
	h := n/2 + 1
	return fr[:h:h], fi[:h:h]
}
