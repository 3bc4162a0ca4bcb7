// Package rbc implements red blood cell membranes as spherical-harmonic
// surfaces (paper §2.2, following [48]): spectral surface differential
// geometry, Canham–Helfrich bending forces, the pole-rotation singular
// quadrature for the self-interaction single-layer potential (the [14]/[48]
// scheme with precomputed per-latitude rotation operators as in [28]), and
// the per-cell locally-implicit time step.
//
// Simplification: the tension σ and the surface-incompressibility
// constraint of the paper's inextensible membrane (§2.2) are dropped from
// the implicit solve, and nothing else holds the membrane area — only the
// bending stiffness resists stretching, so area drifts over a run
// (ROADMAP item 17 measures it). DESIGN.md records this substitution.
package rbc

import (
	"math"
	"math/rand"

	"rbcflow/internal/sht"
)

// Cell is one deformable RBC surface X(θ,φ) of spherical-harmonic order P.
type Cell struct {
	P    int
	Grid *sht.Grid
	// X holds grid positions, component-major: X[c][i*Nlon+j], c = 0,1,2.
	X [3][]float64
}

// Geometry holds the pointwise differential geometry of a cell surface.
type Geometry struct {
	Normal  [3][]float64 // outward unit normal
	W       []float64    // area element |X_θ × X_φ| (quadrature: W·wlat·dφ)
	H       []float64    // mean curvature
	K       []float64    // Gaussian curvature
	E, F, G []float64    // first fundamental form
	Xt, Xp  [3][]float64 // first derivatives
}

// NewCell allocates a cell of order p with all positions zero.
func NewCell(p int) *Cell {
	g := sht.NewGrid(p)
	c := &Cell{P: p, Grid: g}
	for d := 0; d < 3; d++ {
		c.X[d] = make([]float64, g.NumPoints())
	}
	return c
}

// NewSphereCell returns a sphere of the given radius and center.
func NewSphereCell(p int, radius float64, center [3]float64) *Cell {
	c := NewCell(p)
	g := c.Grid
	for i := 0; i < g.Nlat; i++ {
		st, ct := math.Sin(g.Theta[i]), math.Cos(g.Theta[i])
		for j := 0; j < g.Nlon; j++ {
			k := g.Index(i, j)
			c.X[0][k] = center[0] + float64(radius*st*math.Cos(g.Phi[j]))
			c.X[1][k] = center[1] + float64(radius*st*math.Sin(g.Phi[j]))
			c.X[2][k] = center[2] + float64(radius*ct)
		}
	}
	return c
}

// NewBiconcaveCell returns the standard biconcave RBC rest shape scaled to
// the given effective radius, rotated by the (row-major) rotation matrix
// rot and translated to center.
func NewBiconcaveCell(p int, radius float64, center [3]float64, rot *[9]float64) *Cell {
	c := NewCell(p)
	g := c.Grid
	for i := 0; i < g.Nlat; i++ {
		st, ct := math.Sin(g.Theta[i]), math.Cos(g.Theta[i])
		s2 := st * st
		// Evans–Fung biconcave profile.
		h := 0.5 * (0.207 + float64(2.003*s2) - float64(1.123*s2*s2)) * ct
		for j := 0; j < g.Nlon; j++ {
			k := g.Index(i, j)
			v := [3]float64{radius * st * math.Cos(g.Phi[j]), radius * st * math.Sin(g.Phi[j]), radius * h}
			if rot != nil {
				v = [3]float64{
					float64(rot[0]*v[0]) + float64(rot[1]*v[1]) + float64(rot[2]*v[2]),
					float64(rot[3]*v[0]) + float64(rot[4]*v[1]) + float64(rot[5]*v[2]),
					float64(rot[6]*v[0]) + float64(rot[7]*v[1]) + float64(rot[8]*v[2]),
				}
			}
			c.X[0][k] = center[0] + v[0]
			c.X[1][k] = center[1] + v[1]
			c.X[2][k] = center[2] + v[2]
		}
	}
	return c
}

// RandomRotation draws a uniform rotation matrix (row-major) from a random
// unit quaternion — the cell-orientation sampler shared by the filling and
// seeding algorithms.
func RandomRotation(rng *rand.Rand) [9]float64 {
	// float64(): the draw is a product inside rand; 1−u1 must not fuse with it.
	u1, u2, u3 := float64(rng.Float64()), rng.Float64(), rng.Float64()
	q := [4]float64{
		math.Sqrt(1-u1) * math.Sin(2*math.Pi*u2),
		math.Sqrt(1-u1) * math.Cos(2*math.Pi*u2),
		math.Sqrt(u1) * math.Sin(2*math.Pi*u3),
		math.Sqrt(u1) * math.Cos(2*math.Pi*u3),
	}
	w, x, y, z := q[3], q[0], q[1], q[2]
	return [9]float64{
		1 - float64(2*(float64(y*y)+float64(z*z))), 2 * (float64(x*y) - float64(w*z)), 2 * (float64(x*z) + float64(w*y)),
		2 * (float64(x*y) + float64(w*z)), 1 - float64(2*(float64(x*x)+float64(z*z))), 2 * (float64(y*z) - float64(w*x)),
		2 * (float64(x*z) - float64(w*y)), 2 * (float64(y*z) + float64(w*x)), 1 - float64(2*(float64(x*x)+float64(y*y))),
	}
}

// Copy deep-copies the cell.
func (c *Cell) Copy() *Cell {
	out := NewCell(c.P)
	for d := 0; d < 3; d++ {
		copy(out.X[d], c.X[d])
	}
	return out
}

// Points returns the grid positions as a [][3]float64 slice.
func (c *Cell) Points() [][3]float64 {
	n := c.Grid.NumPoints()
	out := make([][3]float64, n)
	for k := 0; k < n; k++ {
		out[k] = [3]float64{c.X[0][k], c.X[1][k], c.X[2][k]}
	}
	return out
}

// ComputeGeometry evaluates the surface differential geometry spectrally.
func (c *Cell) ComputeGeometry() *Geometry {
	g := c.Grid
	n := g.NumPoints()
	geo := &Geometry{
		W: make([]float64, n), H: make([]float64, n), K: make([]float64, n),
		E: make([]float64, n), F: make([]float64, n), G: make([]float64, n),
	}
	var coeffs [3]*sht.Coeffs
	var xtt, xtp, xpp [3][]float64
	for d := 0; d < 3; d++ {
		geo.Normal[d] = make([]float64, n)
		geo.Xt[d] = make([]float64, n)
		geo.Xp[d] = make([]float64, n)
		coeffs[d] = g.Forward(c.X[d])
		g.InverseDTheta(coeffs[d], geo.Xt[d])
		g.InverseDPhi(coeffs[d], geo.Xp[d])
		// Second derivatives in coefficient space (exact for band-limited
		// surfaces; re-transforming derivative *fields* would alias).
		xtt[d] = make([]float64, n)
		xtp[d] = make([]float64, n)
		xpp[d] = make([]float64, n)
		g.InverseD2Theta(coeffs[d], xtt[d])
		g.InverseDThetaDPhi(coeffs[d], xtp[d])
		g.InverseD2Phi(coeffs[d], xpp[d])
	}
	for k := 0; k < n; k++ {
		xt := [3]float64{geo.Xt[0][k], geo.Xt[1][k], geo.Xt[2][k]}
		xp := [3]float64{geo.Xp[0][k], geo.Xp[1][k], geo.Xp[2][k]}
		E := dot(xt, xt)
		F := dot(xt, xp)
		G := dot(xp, xp)
		cr := cross(xt, xp)
		W := math.Sqrt(dot(cr, cr))
		nm := [3]float64{cr[0] / W, cr[1] / W, cr[2] / W}
		L := float64(nm[0]*xtt[0][k]) + float64(nm[1]*xtt[1][k]) + float64(nm[2]*xtt[2][k])
		M := float64(nm[0]*xtp[0][k]) + float64(nm[1]*xtp[1][k]) + float64(nm[2]*xtp[2][k])
		N := float64(nm[0]*xpp[0][k]) + float64(nm[1]*xpp[1][k]) + float64(nm[2]*xpp[2][k])
		den := float64(E*G) - float64(F*F)
		geo.E[k], geo.F[k], geo.G[k] = E, F, G
		geo.W[k] = W
		geo.H[k] = (float64(E*N) - float64(2*F*M) + float64(G*L)) / (2 * den)
		geo.K[k] = (float64(L*N) - float64(M*M)) / den
		for d := 0; d < 3; d++ {
			geo.Normal[d][k] = nm[d]
		}
	}
	return geo
}

// SurfaceLaplacian applies the metric Laplace–Beltrami operator to the
// scalar grid field f using the (frozen) geometry geo:
// Δf = (1/W)[∂θ(W g^θθ f_θ + W g^θφ f_φ) + ∂φ(W g^θφ f_θ + W g^φφ f_φ)].
func (c *Cell) SurfaceLaplacian(geo *Geometry, f []float64) []float64 {
	g := c.Grid
	n := g.NumPoints()
	cf := g.Forward(f)
	ft := make([]float64, n)
	fp := make([]float64, n)
	g.InverseDTheta(cf, ft)
	g.InverseDPhi(cf, fp)
	Ft := make([]float64, n)
	Fp := make([]float64, n)
	for k := 0; k < n; k++ {
		den := float64(geo.E[k]*geo.G[k]) - float64(geo.F[k]*geo.F[k])
		gtt := geo.G[k] / den
		gtp := -geo.F[k] / den
		gpp := geo.E[k] / den
		Ft[k] = geo.W[k] * (float64(gtt*ft[k]) + float64(gtp*fp[k]))
		Fp[k] = geo.W[k] * (float64(gtp*ft[k]) + float64(gpp*fp[k]))
	}
	dFt := make([]float64, n)
	dFp := make([]float64, n)
	g.InverseDTheta(g.Forward(Ft), dFt)
	g.InverseDPhi(g.Forward(Fp), dFp)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		out[k] = (dFt[k] + dFp[k]) / geo.W[k]
	}
	return out
}

// Area returns the surface area by spectral quadrature.
func (c *Cell) Area() float64 {
	geo := c.ComputeGeometry()
	return c.AreaWith(geo)
}

// AreaWith returns the surface area using a precomputed geometry.
func (c *Cell) AreaWith(geo *Geometry) float64 {
	// ∫ W dθdφ-measure: reuse the grid's solid-angle integration by
	// dividing out sinθ.
	g := c.Grid
	vals := make([]float64, g.NumPoints())
	for i := 0; i < g.Nlat; i++ {
		st := math.Sin(g.Theta[i])
		for j := 0; j < g.Nlon; j++ {
			k := g.Index(i, j)
			vals[k] = geo.W[k] / st
		}
	}
	return g.Integrate(vals)
}

// Volume returns the enclosed volume via the divergence theorem:
// V = (1/3)∮ X·n dA.
func (c *Cell) Volume() float64 {
	geo := c.ComputeGeometry()
	g := c.Grid
	vals := make([]float64, g.NumPoints())
	for i := 0; i < g.Nlat; i++ {
		st := math.Sin(g.Theta[i])
		for j := 0; j < g.Nlon; j++ {
			k := g.Index(i, j)
			xn := float64(c.X[0][k]*geo.Normal[0][k]) + float64(c.X[1][k]*geo.Normal[1][k]) + float64(c.X[2][k]*geo.Normal[2][k])
			vals[k] = xn * geo.W[k] / st / 3
		}
	}
	return g.Integrate(vals)
}

// Centroid returns the area-weighted centroid of the surface.
func (c *Cell) Centroid() [3]float64 {
	geo := c.ComputeGeometry()
	g := c.Grid
	var out [3]float64
	var area float64
	vals := make([]float64, g.NumPoints())
	for d := 0; d < 3; d++ {
		for i := 0; i < g.Nlat; i++ {
			st := math.Sin(g.Theta[i])
			for j := 0; j < g.Nlon; j++ {
				k := g.Index(i, j)
				vals[k] = c.X[d][k] * geo.W[k] / st
			}
		}
		out[d] = g.Integrate(vals)
	}
	for i := 0; i < g.Nlat; i++ {
		st := math.Sin(g.Theta[i])
		for j := 0; j < g.Nlon; j++ {
			k := g.Index(i, j)
			vals[k] = geo.W[k] / st
		}
	}
	area = g.Integrate(vals)
	return [3]float64{out[0] / area, out[1] / area, out[2] / area}
}

// QuadWeights returns the per-node surface quadrature weights (so that
// Σ w_k f_k ≈ ∮ f dA) for the given geometry.
func (c *Cell) QuadWeights(geo *Geometry) []float64 {
	g := c.Grid
	dphi := 2 * math.Pi / float64(g.Nlon)
	w := make([]float64, g.NumPoints())
	for i := 0; i < g.Nlat; i++ {
		st := math.Sin(g.Theta[i])
		for j := 0; j < g.Nlon; j++ {
			k := g.Index(i, j)
			w[k] = geo.W[k] / st * g.Wlat[i] * dphi
		}
	}
	return w
}

func dot(a, b [3]float64) float64 {
	return float64(a[0]*b[0]) + float64(a[1]*b[1]) + float64(a[2]*b[2])
}

func cross(a, b [3]float64) [3]float64 {
	return [3]float64{
		float64(a[1]*b[2]) - float64(a[2]*b[1]),
		float64(a[2]*b[0]) - float64(a[0]*b[2]),
		float64(a[0]*b[1]) - float64(a[1]*b[0]),
	}
}
