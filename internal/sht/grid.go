package sht

import (
	"fmt"
	"math"
	"sync"

	"rbcflow/internal/fft"
	"rbcflow/internal/quadrature"
)

// Grid is a Gauss–Legendre × uniform-longitude sampling of the sphere for
// spherical harmonic order p: Nlat = p+1 latitudes at θ_i = acos(x_i) with
// x_i the Gauss–Legendre nodes, and Nlon = 2p uniform longitudes (matching
// the paper's 544 = 17×32 points per RBC at p = 16).
//
// A Grid also holds every table its transforms read, built once by NewGrid
// and read-only afterwards, so one Grid serves any number of goroutines.
type Grid struct {
	P          int
	Nlat, Nlon int
	X          []float64 // Gauss–Legendre nodes (cos θ), descending in θ order
	Theta      []float64 // θ_i = acos(X[i]), ascending
	Wlat       []float64 // Gauss–Legendre weights matching X
	Phi        []float64 // uniform longitudes, φ_j = 2πj/Nlon

	fft *fft.Plan // the DFT along a latitude
	// fwd[i·nc + idx(n,m)] is the analysis weight of coefficient (n, m) at
	// latitude i: w_i Δφ (1/√(2π) for m = 0, 1/√π otherwise) P̄_n^m(x_i),
	// halved for the Nyquist mode m = Nlon/2.
	fwd []float64
	// syn[t][i·nc + k] is the synthesis weight (1/√(2π) for m = 0, 1/√π
	// otherwise) times P̄_n^m (t = 0), dP̄_n^m/dθ (t = 1) or d²P̄_n^m/dθ²
	// (t = 2, via the Legendre ODE) at x_i, for the coefficient
	// idx(n, m) = mMajor[k]: the coefficients in order of m, then n, so
	// that the Legendre sum of one m reads one run of the table.
	syn    [3][]float64
	mMajor []int
	// cos and sin of mφ_j at [j·Nlon/2 + m − 1], m = 1…Nlon/2.
	cos, sin []float64
	// pole[0] and pole[1] are the synthesis weights times P̄_n^m at θ = 0
	// and θ = π, as EvalAt evaluates them.
	pole [2][]float64
}

// Coeffs holds a real spherical harmonic expansion of order P in the packed
// layout A[idx(n,m)], B[idx(n,m)], where the field is
//
//	f = Σ_n ( A_{n0} P̄_n^0/√(2π) + Σ_{m≥1} (A_{nm} cos mφ + B_{nm} sin mφ) P̄_n^m/√π ).
type Coeffs struct {
	P    int
	A, B []float64
}

// NewCoeffs allocates a zero expansion of order p.
func NewCoeffs(p int) *Coeffs {
	n := NumCoeffs(p)
	return &Coeffs{P: p, A: make([]float64, n), B: make([]float64, n)}
}

// Copy returns a deep copy of c.
func (c *Coeffs) Copy() *Coeffs {
	out := NewCoeffs(c.P)
	copy(out.A, c.A)
	copy(out.B, c.B)
	return out
}

var (
	gridMu    sync.Mutex
	gridCache = map[int]*Grid{}
)

// NewGrid builds (and caches) the grid for order p >= 1, with its tables.
// Each table entry is the expression a transform would evaluate where it
// reads the entry, so reading it changes no bit (the tests keep the
// untabulated per-field inverse as the reference).
func NewGrid(p int) *Grid {
	gridMu.Lock()
	defer gridMu.Unlock()
	if g, ok := gridCache[p]; ok {
		return g
	}
	if p < 1 {
		panic(fmt.Sprintf("sht: order must be >= 1, got %d", p))
	}
	nlat, nlon := p+1, 2*p
	g := &Grid{P: p, Nlat: nlat, Nlon: nlon, fft: fft.NewPlan(nlon)}
	nodes, weights := quadrature.GaussLegendre(nlat)
	// Sort by ascending θ (descending x).
	g.X = make([]float64, nlat)
	g.Wlat = make([]float64, nlat)
	g.Theta = make([]float64, nlat)
	for i := 0; i < nlat; i++ {
		g.X[i] = nodes[nlat-1-i]
		g.Wlat[i] = weights[nlat-1-i]
		g.Theta[i] = math.Acos(g.X[i])
	}
	g.Phi = make([]float64, nlon)
	for j := 0; j < nlon; j++ {
		g.Phi[j] = 2 * math.Pi * float64(j) / float64(nlon)
	}

	nc := NumCoeffs(p)
	dphi := 2 * math.Pi / float64(nlon)
	g.fwd = make([]float64, nlat*nc)
	for t := range g.syn {
		g.syn[t] = make([]float64, nlat*nc)
	}
	for m := 0; m <= p; m++ {
		for n := m; n <= p; n++ {
			g.mMajor = append(g.mMajor, CoeffIndex(n, m))
		}
	}
	plm, dplm, d2plm := make([]float64, nc), make([]float64, nc), make([]float64, nc)
	for i := 0; i < nlat; i++ {
		NormalizedLegendre(p, g.X[i], plm)
		NormalizedLegendreDTheta(p, g.X[i], plm, dplm)
		// Associated Legendre ODE: P'' = -cotθ P' + (m²/sin²θ - n(n+1)) P.
		st := math.Sqrt(1 - float64(g.X[i]*g.X[i]))
		cot := g.X[i] / st
		wi := g.Wlat[i] * dphi
		fwd := g.fwd[i*nc:][:nc]
		for n := 0; n <= p; n++ {
			for m := 0; m <= n; m++ {
				idx := CoeffIndex(n, m)
				fm, fn := float64(m), float64(n)
				d2plm[idx] = float64(-cot*dplm[idx]) + float64((fm*fm/(st*st)-float64(fn*(fn+1)))*plm[idx])
				norm := sqrtPiInv
				if m == 0 {
					norm = sqrt2PiInv
				}
				fwd[idx] = wi * norm * plm[idx]
				if 2*m == nlon {
					// Nyquist mode: cos²(mφ) sums to Nlon, not Nlon/2.
					fwd[idx] *= 0.5
				}
			}
		}
		for k, idx := range g.mMajor {
			norm := sqrtPiInv
			if k <= p { // m = 0
				norm = sqrt2PiInv
			}
			g.syn[0][i*nc+k] = norm * plm[idx]
			g.syn[1][i*nc+k] = norm * dplm[idx]
			g.syn[2][i*nc+k] = norm * d2plm[idx]
		}
	}

	half := nlon / 2
	g.cos = make([]float64, nlon*half)
	g.sin = make([]float64, nlon*half)
	for j := 0; j < nlon; j++ {
		for m := 1; m <= half; m++ {
			g.cos[j*half+m-1] = math.Cos(float64(m) * g.Phi[j])
			g.sin[j*half+m-1] = math.Sin(float64(m) * g.Phi[j])
		}
	}

	for s, theta := range [2]float64{0, math.Pi} {
		legendreAt(p, theta, plm)
		g.pole[s] = make([]float64, nc)
		for n := 0; n <= p; n++ {
			base := CoeffIndex(n, 0)
			g.pole[s][base] = sqrt2PiInv * plm[base]
			for m := 1; m <= n; m++ {
				g.pole[s][base+m] = sqrtPiInv * plm[base+m]
			}
		}
	}
	gridCache[p] = g
	return g
}

// NumPoints returns the total number of grid points Nlat*Nlon.
func (g *Grid) NumPoints() int { return g.Nlat * g.Nlon }

// Index returns the flat index of grid point (i latitude, j longitude).
func (g *Grid) Index(i, j int) int { return i*g.Nlon + j }

const (
	sqrt2PiInv = 0.3989422804014327 // 1/sqrt(2π)
	sqrtPiInv  = 0.5641895835477563 // 1/sqrt(π)
)

// Work is the scratch space of the transforms on one grid. It serves one
// transform at a time; each goroutine uses its own (NewWork).
type Work struct {
	re, im []float64 // a latitude's DFT, Nlon each
	// a and b hold an expansion's coefficients in m-major order, then
	// scaled by −m² as ∂²/∂φ² scales them (4 × nc).
	a, b, a2, b2 []float64
	// sums holds one latitude's Legendre sums, Nlon/2+1 entries each: the
	// cos and sin parts for the P̄, dP̄/dθ, d²P̄/dθ² and −m²-scaled P̄ sums,
	// then the φ-derivative's weights −m·(cos part) and m·(sin part).
	sums []float64
}

// NewWork allocates the transform scratch for g.
func (g *Grid) NewWork() *Work {
	h, nc := g.Nlon/2+1, NumCoeffs(g.P)
	buf := make([]float64, 2*g.Nlon+4*nc+10*h)
	next := func(size int) []float64 {
		f := buf[:size:size]
		buf = buf[size:]
		return f
	}
	w := &Work{re: next(g.Nlon), im: next(g.Nlon)}
	w.a, w.b, w.a2, w.b2 = next(nc), next(nc), next(nc), next(nc)
	w.sums = next(10 * h)
	return w
}

// Forward computes the spherical harmonic coefficients of the scalar field
// values (length Nlat*Nlon, layout values[i*Nlon+j]).
func (g *Grid) Forward(values []float64) *Coeffs {
	c := NewCoeffs(g.P)
	g.ForwardInto(values, c, g.NewWork())
	return c
}

// ForwardInto is Forward writing into c (of order P) with scratch w; it
// allocates nothing.
func (g *Grid) ForwardInto(values []float64, c *Coeffs, w *Work) {
	g.checkOrder(c)
	clear(c.A)
	clear(c.B)
	nc := len(c.A)
	re, im := w.re, w.im
	// Longitudinal Fourier analysis per latitude, then Legendre projection.
	for i := 0; i < g.Nlat; i++ {
		g.fft.Forward(values[i*g.Nlon:(i+1)*g.Nlon], re, im) // re[m]=Σ f cos(mφ), im[m]=-Σ f sin(mφ)
		q := g.fwd[i*nc:][:nc]
		for n := 0; n <= g.P; n++ {
			base := n * (n + 1) / 2
			c.A[base] += float64(q[base] * re[0])
			for m := 1; m <= n; m++ {
				c.A[base+m] += float64(q[base+m] * re[m])
				c.B[base+m] += float64(q[base+m] * (-im[m]))
			}
		}
	}
}

// Fields names the grid fields Synthesize evaluates (each of length
// Nlat*Nlon); it skips the nil ones.
type Fields struct {
	F          []float64 // f
	T, P       []float64 // ∂f/∂θ, ∂f/∂φ
	TT, TP, PP []float64 // ∂²f/∂θ², ∂²f/∂θ∂φ, ∂²f/∂φ² (exact for band-limited f)
}

// Inverse evaluates the expansion c on the grid, writing into out
// (length Nlat*Nlon); an expansion of another order is resampled to the
// grid's first.
func (g *Grid) Inverse(c *Coeffs, out []float64) {
	if c.P != g.P {
		c = Resample(c, g.P)
	}
	g.Synthesize(c, Fields{F: out}, g.NewWork())
}

// Synthesize evaluates the fields of out from the one expansion c (of order
// P) with scratch w; it allocates nothing. Each latitude runs one Legendre
// sum per table the fields read — P̄ for f and ∂φ, dP̄/dθ for ∂θ and ∂θφ,
// d²P̄/dθ² for ∂θθ, P̄ on the −m²-scaled coefficients for ∂φφ — and then
// one sum over the longitudinal modes per field and grid point.
func (g *Grid) Synthesize(c *Coeffs, out Fields, w *Work) {
	g.checkOrder(c)
	h := g.Nlon/2 + 1
	nc := len(c.A)
	for k, idx := range g.mMajor {
		w.a[k], w.b[k] = c.A[idx], c.B[idx]
	}
	if out.PP != nil {
		k := 0
		for m := 0; m <= g.P; m++ {
			fm := float64(m)
			s := -fm * fm
			for end := k + g.P + 1 - m; k < end; k++ {
				w.a2[k], w.b2[k] = s*w.a[k], s*w.b[k]
			}
		}
	}
	sum := func(k int) (cm, sm []float64) { return w.sums[2*k*h:][:h], w.sums[(2*k+1)*h:][:h] }
	plmC, plmS := sum(0)
	dC, dS := sum(1)
	d2C, d2S := sum(2)
	ppC, ppS := sum(3)
	phC, phS := sum(4)
	usePlm, useD, useD2 := out.F != nil || out.P != nil, out.T != nil || out.TP != nil, out.TT != nil
	for i := 0; i < g.Nlat; i++ {
		if usePlm {
			g.legendreSum(plmC, plmS, g.syn[0][i*nc:][:nc], w.a, w.b)
		}
		if useD {
			g.legendreSum(dC, dS, g.syn[1][i*nc:][:nc], w.a, w.b)
		}
		if useD2 {
			g.legendreSum(d2C, d2S, g.syn[2][i*nc:][:nc], w.a, w.b)
		}
		if out.PP != nil {
			g.legendreSum(ppC, ppS, g.syn[0][i*nc:][:nc], w.a2, w.b2)
		}
		row := i * g.Nlon
		g.synthRow(out.F, row, plmC, plmS)
		g.synthRow(out.T, row, dC, dS)
		g.synthRow(out.TT, row, d2C, d2S)
		g.synthRow(out.PP, row, ppC, ppS)
		if out.P != nil {
			g.synthRowDPhi(out.P[row:], plmC, plmS, phC, phS)
		}
		if out.TP != nil {
			g.synthRowDPhi(out.TP[row:], dC, dS, phC, phS)
		}
	}
}

func (g *Grid) checkOrder(c *Coeffs) {
	if c.P != g.P {
		panic(fmt.Sprintf("sht: expansion of order %d on a grid of order %d", c.P, g.P))
	}
}

// legendreSum sets cm[m] = Σ_n v[k]·a[k] and sm[m] = Σ_n v[k]·b[k] (m ≥ 1),
// k running over the m-major coefficients (n, m) in increasing n: each sum
// from +0 and over n in increasing order, as the per-field reference adds.
func (g *Grid) legendreSum(cm, sm, v, a, b []float64) {
	p := g.P
	var s float64
	for k, x := range v[:p+1] {
		s += float64(x * a[k])
	}
	cm[0] = s
	k := p + 1
	for m := 1; m <= p; m++ {
		run := p + 1 - m
		vm, am, bm := v[k:][:run], a[k:][:run], b[k:][:run]
		var sc, ss float64
		for i, x := range vm {
			sc += float64(x * am[i])
			ss += float64(x * bm[i])
		}
		cm[m], sm[m] = sc, ss
		k += run
	}
}

// synthRow writes f(θ_i, φ_j) = cm[0] + Σ_{m≥1} cm[m] cos mφ_j + sm[m] sin mφ_j
// into out[row:row+Nlon]; a nil out is skipped.
func (g *Grid) synthRow(out []float64, row int, cm, sm []float64) {
	if out == nil {
		return
	}
	half := g.Nlon / 2
	out = out[row:][:g.Nlon]
	cm1, sm1 := cm[1:][:half], sm[1:][:half]
	// Two longitudes per pass (Nlon is even), each its own sum.
	for j := 0; j < len(out); j += 2 {
		cs0, sn0 := g.cos[j*half:][:half], g.sin[j*half:][:half]
		cs1, sn1 := g.cos[(j+1)*half:][:half], g.sin[(j+1)*half:][:half]
		s0, s1 := cm[0], cm[0]
		for m, c := range cm1 {
			sv := sm1[m]
			s0 += float64(c*cs0[m]) + float64(sv*sn0[m])
			s1 += float64(c*cs1[m]) + float64(sv*sn1[m])
		}
		out[j], out[j+1] = s0, s1
	}
}

// synthRowDPhi writes the φ-derivative of the row synthRow would write,
// Σ_{m≥1} (−m cm[m]) sin mφ_j + (m sm[m]) cos mφ_j, into out[:Nlon], with
// a and b as scratch for the weights.
func (g *Grid) synthRowDPhi(out, cm, sm, a, b []float64) {
	half := g.Nlon / 2
	out = out[:g.Nlon]
	a, b = a[1:][:half], b[1:][:half]
	for m := range a {
		fm := float64(m + 1)
		a[m] = -fm * cm[m+1]
		b[m] = fm * sm[m+1]
	}
	for j := 0; j < len(out); j += 2 {
		cs0, sn0 := g.cos[j*half:][:half], g.sin[j*half:][:half]
		cs1, sn1 := g.cos[(j+1)*half:][:half], g.sin[(j+1)*half:][:half]
		var s0, s1 float64
		for m, am := range a {
			bm := b[m]
			s0 += float64(am*sn0[m]) + float64(bm*cs0[m])
			s1 += float64(am*sn1[m]) + float64(bm*cs1[m])
		}
		out[j], out[j+1] = s0, s1
	}
}

// legendreAt fills plm with the normalized Legendre functions at
// x = cos θ, clamped to [−1, 1].
func legendreAt(p int, theta float64, plm []float64) {
	x := math.Cos(theta)
	// Clamp to the open interval to keep the Legendre recurrences finite.
	if x > 1 {
		x = 1
	}
	if x < -1 {
		x = -1
	}
	NormalizedLegendre(p, x, plm)
}

// EvalAt evaluates the expansion at an arbitrary point (θ, φ) on the sphere.
func EvalAt(c *Coeffs, theta, phi float64) float64 {
	plm := make([]float64, NumCoeffs(c.P))
	legendreAt(c.P, theta, plm)
	var s float64
	for n := 0; n <= c.P; n++ {
		base := n * (n + 1) / 2
		s += float64(sqrt2PiInv * plm[base] * c.A[base])
		for m := 1; m <= n; m++ {
			fm := float64(m)
			s += float64(sqrtPiInv * plm[base+m] * (float64(c.A[base+m]*math.Cos(fm*phi)) + float64(c.B[base+m]*math.Sin(fm*phi))))
		}
	}
	return s
}

// PoleValues returns the expansion (of order P) at the poles, EvalAt(c, 0, 0)
// and EvalAt(c, π, 0) to the bit, from the Legendre rows the grid holds
// there: the same sums, in the same order, at cos 0 = 1 and sin 0 = 0.
func (g *Grid) PoleValues(c *Coeffs) (north, south float64) {
	g.checkOrder(c)
	var v [2]float64
	for s, row := range g.pole {
		for n := 0; n <= g.P; n++ {
			base := n * (n + 1) / 2
			v[s] += float64(row[base] * c.A[base])
			for m := 1; m <= n; m++ {
				v[s] += float64(row[base+m] * (float64(c.A[base+m]*1) + float64(c.B[base+m]*0)))
			}
		}
	}
	return v[0], v[1]
}

// Integrate returns ∫ f dΩ over the unit sphere for grid samples of f
// (the solid-angle integral; surface integrals on deformed surfaces multiply
// by the local area element first).
func (g *Grid) Integrate(values []float64) float64 {
	dphi := 2 * math.Pi / float64(g.Nlon)
	var s float64
	for i := 0; i < g.Nlat; i++ {
		var rowSum float64
		for j := 0; j < g.Nlon; j++ {
			rowSum += values[i*g.Nlon+j]
		}
		s += float64(g.Wlat[i] * rowSum)
	}
	return s * dphi
}

// Resample re-expands c at a different order q (truncation when q < c.P,
// zero-padding when q > c.P).
func Resample(c *Coeffs, q int) *Coeffs {
	out := NewCoeffs(q)
	pmin := c.P
	if q < pmin {
		pmin = q
	}
	for n := 0; n <= pmin; n++ {
		for m := 0; m <= n; m++ {
			src := CoeffIndex(n, m)
			dst := CoeffIndex(n, m)
			out.A[dst] = c.A[src]
			out.B[dst] = c.B[src]
		}
	}
	return out
}
