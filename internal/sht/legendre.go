// Package sht implements spherical harmonic analysis on Gauss–Legendre ×
// uniform longitude grids: forward/inverse transforms, spectral θ- and
// φ-derivatives, pointwise evaluation and resampling between orders. RBC
// surfaces in the paper are represented exactly this way (§2.2 "Overall
// Discretization", following Veerapaneni et al. [48]).
//
// Tables: NewGrid tabulates, once per order, everything the transforms
// read — the weighted Legendre rows of analysis and of synthesis (values,
// first and second θ-derivatives), the cos and sin of every mode at every
// longitude, the DFT's twiddles (an fft.Plan) and the Legendre rows at the
// poles. A Grid is read-only afterwards and shared by every cell and
// goroutine.
//
// One synthesis: Grid.Synthesize evaluates any of f, ∂θ, ∂φ, ∂θθ, ∂θφ and
// ∂φφ from one expansion, one Legendre sum per table the requested fields
// read, then one longitudinal sum per field.
//
// Workspaces: ForwardInto and Synthesize work in a caller-owned Work (one
// per goroutine; Grid.NewWork) and allocate nothing. Forward and Inverse are
// their allocating conveniences. Every product that feeds a sum is rounded
// on its own (float64(x*y)), so no architecture fuses it: the transforms
// give the same bits wherever their tables have them.
package sht

import "math"

// CoeffIndex returns the packed index of the (n, m) coefficient pair,
// 0 <= m <= n <= p: idx = n(n+1)/2 + m.
func CoeffIndex(n, m int) int { return n*(n+1)/2 + m }

// NumCoeffs returns the number of packed (n, m) pairs for order p.
func NumCoeffs(p int) int { return (p + 1) * (p + 2) / 2 }

// NormalizedLegendre fills out[idx(n,m)] with the fully normalized associated
// Legendre functions P̄_n^m(x) for 0 <= m <= n <= p, normalized so that
// ∫_{-1}^{1} P̄_n^m(x)² dx = 1. No Condon–Shortley phase.
func NormalizedLegendre(p int, x float64, out []float64) {
	s := math.Sqrt(1 - float64(x*x)) // sin(theta) >= 0
	// Diagonal seeds P̄_m^m.
	out[CoeffIndex(0, 0)] = math.Sqrt(0.5)
	for m := 1; m <= p; m++ {
		out[CoeffIndex(m, m)] = math.Sqrt((float64(2*float64(m))+1)/(2*float64(m))) * s * out[CoeffIndex(m-1, m-1)]
	}
	// First off-diagonal P̄_{m+1}^m.
	for m := 0; m < p; m++ {
		out[CoeffIndex(m+1, m)] = math.Sqrt(float64(2*float64(m))+3) * x * out[CoeffIndex(m, m)]
	}
	// Upward recurrence in n for fixed m.
	for m := 0; m <= p; m++ {
		for n := m + 2; n <= p; n++ {
			fn, fm := float64(n), float64(m)
			a := math.Sqrt((float64(4*fn*fn) - 1) / (float64(fn*fn) - float64(fm*fm)))
			c := math.Sqrt((float64(2*fn) + 1) * (fn - 1 + fm) * (fn - 1 - fm) / ((float64(2*fn) - 3) * (float64(fn*fn) - float64(fm*fm))))
			out[CoeffIndex(n, m)] = float64(a*x*out[CoeffIndex(n-1, m)]) - float64(c*out[CoeffIndex(n-2, m)])
		}
	}
}

// NormalizedLegendreDTheta fills dout[idx(n,m)] with dP̄_n^m/dθ evaluated at
// x = cos(θ), given the values plm (from NormalizedLegendre at the same x).
// Uses the same-order derivative identity
//
//	sinθ · dP_n^m/dθ = n x P_n^m − (n+m) P_{n−1}^m  (up to normalization),
//
// which is free of phase-convention ambiguity. Requires sinθ > 0.
func NormalizedLegendreDTheta(p int, x float64, plm, dout []float64) {
	s := math.Sqrt(1 - float64(x*x))
	for n := 0; n <= p; n++ {
		for m := 0; m <= n; m++ {
			fn, fm := float64(n), float64(m)
			var lower float64
			if n-1 >= m {
				// (n+m) * ratio of normalizations K'_{nm}/K'_{n-1,m}.
				coef := math.Sqrt((float64(2*fn) + 1) * (fn - fm) * (fn + fm) / (float64(2*fn) - 1))
				lower = coef * plm[CoeffIndex(n-1, m)]
			}
			dout[CoeffIndex(n, m)] = (float64(fn*x*plm[CoeffIndex(n, m)]) - lower) / s
		}
	}
}
