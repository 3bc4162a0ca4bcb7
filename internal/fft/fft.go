// Package fft implements the real forward DFT that the spherical harmonic
// machinery runs along each latitude of a uniform longitude grid (RBC
// surfaces). A Plan tabulates, once per length, the transform's twiddle
// factors: power-of-two lengths run an iterative radix-2 Cooley–Tukey
// transform over its per-stage twiddles, and other lengths a direct DFT
// over its table of cos and sin, for the half spectrum only. A Plan is
// read-only after NewPlan and serves any number of goroutines; each call
// works in the caller's slices.
package fft

import "math"

// Plan is the forward DFT of length N.
type Plan struct {
	n int
	// Radix-2 (N a power of two): rev[i] is i bit-reversed, and the stage
	// of length L = 2, 4, …, N reads its L/2 twiddles from twRe/twIm at
	// offset L/2 − 1.
	rev        []int
	twRe, twIm []float64
	// Direct DFT (other N): cos and sin of −2πjk/N at [k·N + j] for the
	// frequencies k = 0…N/2 that Forward returns.
	cos, sin []float64
}

// NewPlan tabulates the forward DFT of length n ≥ 1. Each table entry is
// the expression, or the step of the twiddle recurrence, that an unplanned
// transform evaluates where Forward reads the entry, so the two agree to
// the bit (the tests keep the unplanned transform as the reference).
func NewPlan(n int) *Plan {
	if n < 1 {
		panic("fft: length must be >= 1")
	}
	p := &Plan{n: n}
	const sign = -1.0
	if n&(n-1) == 0 {
		p.rev = make([]int, n)
		for i, j := 1, 0; i < n; i++ {
			bit := n >> 1
			for ; j&bit != 0; bit >>= 1 {
				j ^= bit
			}
			j ^= bit
			p.rev[i] = j
		}
		p.twRe = make([]float64, n-1)
		p.twIm = make([]float64, n-1)
		for length := 2; length <= n; length <<= 1 {
			ang := sign * 2 * math.Pi / float64(length)
			wRe, wIm := math.Cos(ang), math.Sin(ang)
			curRe, curIm := 1.0, 0.0
			half := length / 2
			for k := 0; k < half; k++ {
				p.twRe[half-1+k], p.twIm[half-1+k] = curRe, curIm
				curRe, curIm = float64(curRe*wRe)-float64(curIm*wIm), float64(curRe*wIm)+float64(curIm*wRe)
			}
		}
		return p
	}
	h := n/2 + 1
	p.cos = make([]float64, h*n)
	p.sin = make([]float64, h*n)
	for k := 0; k < h; k++ {
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(j) * float64(k) / float64(n)
			p.cos[k*n+j], p.sin[k*n+j] = math.Cos(ang), math.Sin(ang)
		}
	}
	return p
}

// Forward computes the DFT of the real sequence x (length N),
// X[k] = Σ_j x[j] exp(−2πi jk/N), and leaves the frequencies 0…N/2 in
// re[:N/2+1], im[:N/2+1]; the others follow from conjugate symmetry. re and
// im (length N each) are the transform's work space: on return their
// entries past N/2 hold intermediate values.
func (p *Plan) Forward(x, re, im []float64) {
	n := p.n
	x, re, im = x[:n], re[:n], im[:n]
	if p.rev == nil {
		p.direct(x, re, im)
		return
	}
	// The bit-reversal permutation of x into re: where the in-place swaps
	// of an unplanned transform leave each entry.
	for i, j := range p.rev {
		re[i] = x[j]
		im[i] = 0
	}
	for length := 2; length <= n; length <<= 1 {
		half := length / 2
		twRe, twIm := p.twRe[half-1:][:half], p.twIm[half-1:][:half]
		for start := 0; start < n; start += length {
			for k := 0; k < half; k++ {
				curRe, curIm := twRe[k], twIm[k]
				i0, i1 := start+k, start+k+half
				tRe := float64(re[i1]*curRe) - float64(im[i1]*curIm)
				tIm := float64(re[i1]*curIm) + float64(im[i1]*curRe)
				re[i1] = re[i0] - tRe
				im[i1] = im[i0] - tIm
				re[i0] += tRe
				im[i0] += tIm
			}
		}
	}
}

// direct is the DFT by its definition, for the frequencies 0…N/2 only
// (each is its own sum). The input is real, so the complex sum's products
// with the zero imaginary part are left out: each adds a zero to a term, and
// a sum that starts from +0 ends with the same bits with or without them.
func (p *Plan) direct(x, re, im []float64) {
	n := p.n
	for k := 0; k <= n/2; k++ {
		cs, sn := p.cos[k*n:][:n], p.sin[k*n:][:n]
		var sr, si float64
		for j, v := range x {
			sr += float64(v * cs[j])
			si += float64(v * sn[j])
		}
		re[k], im[k] = sr, si
	}
}
