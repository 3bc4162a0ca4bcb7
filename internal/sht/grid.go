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
type Grid struct {
	P          int
	Nlat, Nlon int
	X          []float64   // Gauss–Legendre nodes (cos θ), descending in θ order
	Theta      []float64   // θ_i = acos(X[i]), ascending
	Wlat       []float64   // Gauss–Legendre weights matching X
	Phi        []float64   // uniform longitudes, φ_j = 2πj/Nlon
	Plm        [][]float64 // Plm[i][idx(n,m)]: normalized Legendre at X[i]
	DPlm       [][]float64 // dP̄/dθ at X[i]
	D2Plm      [][]float64 // d²P̄/dθ² at X[i] (via the Legendre ODE)
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

// NewGrid builds (and caches) the grid for order p >= 1.
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
	g := &Grid{P: p, Nlat: nlat, Nlon: nlon}
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
	g.Plm = make([][]float64, nlat)
	g.DPlm = make([][]float64, nlat)
	g.D2Plm = make([][]float64, nlat)
	for i := 0; i < nlat; i++ {
		g.Plm[i] = make([]float64, nc)
		g.DPlm[i] = make([]float64, nc)
		g.D2Plm[i] = make([]float64, nc)
		NormalizedLegendre(p, g.X[i], g.Plm[i])
		NormalizedLegendreDTheta(p, g.X[i], g.Plm[i], g.DPlm[i])
		// Associated Legendre ODE: P'' = -cotθ P' + (m²/sin²θ - n(n+1)) P.
		st := math.Sqrt(1 - g.X[i]*g.X[i])
		cot := g.X[i] / st
		for n := 0; n <= p; n++ {
			for m := 0; m <= n; m++ {
				idx := CoeffIndex(n, m)
				fm, fn := float64(m), float64(n)
				g.D2Plm[i][idx] = -cot*g.DPlm[i][idx] + (fm*fm/(st*st)-fn*(fn+1))*g.Plm[i][idx]
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

// Forward computes the spherical harmonic coefficients of the scalar field
// values (length Nlat*Nlon, layout values[i*Nlon+j]).
func (g *Grid) Forward(values []float64) *Coeffs {
	c := NewCoeffs(g.P)
	g.ForwardInto(values, c)
	return c
}

// ForwardInto is Forward writing into a preallocated Coeffs.
func (g *Grid) ForwardInto(values []float64, c *Coeffs) {
	dphi := 2 * math.Pi / float64(g.Nlon)
	nc := NumCoeffs(g.P)
	for k := 0; k < nc; k++ {
		c.A[k] = 0
		c.B[k] = 0
	}
	// Longitudinal Fourier analysis per latitude, then Legendre projection.
	for i := 0; i < g.Nlat; i++ {
		row := values[i*g.Nlon : (i+1)*g.Nlon]
		re, im := fft.RealForward(row) // re[m]=Σ f cos(mφ), im[m]=-Σ f sin(mφ)
		wi := g.Wlat[i] * dphi
		plm := g.Plm[i]
		for n := 0; n <= g.P; n++ {
			base := n * (n + 1) / 2
			c.A[base] += wi * sqrt2PiInv * plm[base] * re[0]
			mmax := n
			if mmax > g.Nlon/2 {
				mmax = g.Nlon / 2
			}
			for m := 1; m <= mmax; m++ {
				scale := wi * sqrtPiInv * plm[base+m]
				if 2*m == g.Nlon {
					// Nyquist mode: cos²(mφ) sums to Nlon, not Nlon/2.
					scale *= 0.5
				}
				c.A[base+m] += scale * re[m]
				c.B[base+m] += scale * (-im[m])
			}
		}
	}
}

// Inverse evaluates the expansion c on the grid, writing into out
// (length Nlat*Nlon).
func (g *Grid) Inverse(c *Coeffs, out []float64) {
	g.inverseWith(c, out, g.Plm, false)
}

// InverseDTheta evaluates ∂f/∂θ on the grid.
func (g *Grid) InverseDTheta(c *Coeffs, out []float64) {
	g.inverseWith(c, out, g.DPlm, false)
}

// InverseDPhi evaluates ∂f/∂φ on the grid.
func (g *Grid) InverseDPhi(c *Coeffs, out []float64) {
	g.inverseWith(c, out, g.Plm, true)
}

// InverseD2Theta evaluates ∂²f/∂θ² on the grid (exact for band-limited f).
func (g *Grid) InverseD2Theta(c *Coeffs, out []float64) {
	g.inverseWith(c, out, g.D2Plm, false)
}

// InverseDThetaDPhi evaluates ∂²f/∂θ∂φ on the grid.
func (g *Grid) InverseDThetaDPhi(c *Coeffs, out []float64) {
	g.inverseWith(c, out, g.DPlm, true)
}

// InverseD2Phi evaluates ∂²f/∂φ² on the grid.
func (g *Grid) InverseD2Phi(c *Coeffs, out []float64) {
	tmp := NewCoeffs(c.P)
	for n := 0; n <= c.P; n++ {
		for m := 0; m <= n; m++ {
			idx := CoeffIndex(n, m)
			fm := float64(m)
			tmp.A[idx] = -fm * fm * c.A[idx]
			tmp.B[idx] = -fm * fm * c.B[idx]
		}
	}
	g.inverseWith(tmp, out, g.Plm, false)
}

func (g *Grid) inverseWith(c *Coeffs, out []float64, plmTab [][]float64, dphi bool) {
	if c.P != g.P {
		c = Resample(c, g.P)
	}
	cosTab, sinTab := g.trigTables()
	half := g.Nlon / 2
	cm := make([]float64, half+1)
	sm := make([]float64, half+1)
	for i := 0; i < g.Nlat; i++ {
		plm := plmTab[i]
		for m := 0; m <= half; m++ {
			cm[m], sm[m] = 0, 0
		}
		for n := 0; n <= g.P; n++ {
			base := n * (n + 1) / 2
			cm[0] += sqrt2PiInv * plm[base] * c.A[base]
			mmax := n
			if mmax > half {
				mmax = half
			}
			for m := 1; m <= mmax; m++ {
				v := sqrtPiInv * plm[base+m]
				cm[m] += v * c.A[base+m]
				sm[m] += v * c.B[base+m]
			}
		}
		for j := 0; j < g.Nlon; j++ {
			var s float64
			if dphi {
				// ∂/∂φ: cos→-m sin, sin→m cos.
				for m := 1; m <= half; m++ {
					fm := float64(m)
					s += -fm*cm[m]*sinTab[m][j] + fm*sm[m]*cosTab[m][j]
				}
			} else {
				s = cm[0]
				for m := 1; m <= half; m++ {
					s += cm[m]*cosTab[m][j] + sm[m]*sinTab[m][j]
				}
			}
			out[i*g.Nlon+j] = s
		}
	}
}

var (
	trigMu    sync.Mutex
	trigCache = map[int][2][][]float64{}
)

func (g *Grid) trigTables() (cosTab, sinTab [][]float64) {
	trigMu.Lock()
	defer trigMu.Unlock()
	if t, ok := trigCache[g.Nlon]; ok {
		return t[0], t[1]
	}
	half := g.Nlon / 2
	cosTab = make([][]float64, half+1)
	sinTab = make([][]float64, half+1)
	for m := 0; m <= half; m++ {
		cosTab[m] = make([]float64, g.Nlon)
		sinTab[m] = make([]float64, g.Nlon)
		for j := 0; j < g.Nlon; j++ {
			cosTab[m][j] = math.Cos(float64(m) * g.Phi[j])
			sinTab[m][j] = math.Sin(float64(m) * g.Phi[j])
		}
	}
	trigCache[g.Nlon] = [2][][]float64{cosTab, sinTab}
	return cosTab, sinTab
}

// EvalAt evaluates the expansion at an arbitrary point (θ, φ) on the sphere.
func EvalAt(c *Coeffs, theta, phi float64) float64 {
	x := math.Cos(theta)
	// Clamp to the open interval to keep the Legendre recurrences finite.
	if x > 1 {
		x = 1
	}
	if x < -1 {
		x = -1
	}
	nc := NumCoeffs(c.P)
	plm := make([]float64, nc)
	NormalizedLegendre(c.P, x, plm)
	var s float64
	for n := 0; n <= c.P; n++ {
		base := n * (n + 1) / 2
		s += sqrt2PiInv * plm[base] * c.A[base]
		for m := 1; m <= n; m++ {
			fm := float64(m)
			s += sqrtPiInv * plm[base+m] * (c.A[base+m]*math.Cos(fm*phi) + c.B[base+m]*math.Sin(fm*phi))
		}
	}
	return s
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
		s += g.Wlat[i] * rowSum
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
