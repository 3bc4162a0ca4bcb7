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

// Copy deep-copies the cell; the copy shares c's (read-only) grid.
func (c *Cell) Copy() *Cell {
	n := c.Grid.NumPoints()
	out := &Cell{P: c.P, Grid: c.Grid}
	slab := make([]float64, 3*n)
	for d := 0; d < 3; d++ {
		out.X[d] = slab[d*n : (d+1)*n : (d+1)*n]
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

// Workspace is the scratch space of a cell's spectral geometry, surface
// Laplacian and linearized bending on one grid: the transforms' work, one
// expansion, and 11 grid fields that each step views in its own way (the
// field constants). It serves one call at a time; with it those calls
// allocate nothing.
type Workspace struct {
	sw  *sht.Work
	co  sht.Coeffs
	n   int
	buf []float64
}

// The steps' views of a workspace's fields. A step's views are disjoint;
// different steps' overlap, as no step runs inside another except the
// Laplacian inside the bending forces, whose fields follow its own.
const (
	fieldXtt = 0 // ComputeGeometryInto: ∂θθ X, ∂θφ X, ∂φφ X (9 fields)
	fieldXtp = 3
	fieldXpp = 6

	fieldXt   = 0 // surfaceElement: ∂θ X, ∂φ X (6 fields), the area
	fieldXp   = 3 // element, the unit normal (3 fields); then an
	fieldW    = 6 // integrand of Area, Volume or Centroid
	fieldNrm  = 7
	fieldVals = 10

	fieldFt    = 0 // SurfaceLaplacianInto: f's derivatives and fluxes (4 fields)
	fieldFp    = 1
	fieldFluxT = 2
	fieldFluxP = 3

	fieldLap = 4 // the bending forces: a Laplacian
	fieldDn  = 5 // and a normal displacement

	numFields = 11
)

// field returns field i of the workspace.
func (ws *Workspace) field(i int) []float64 {
	return ws.buf[i*ws.n : (i+1)*ws.n : (i+1)*ws.n]
}

// field3 returns fields i, i+1 and i+2 of the workspace.
func (ws *Workspace) field3(i int) [3][]float64 {
	return [3][]float64{ws.field(i), ws.field(i + 1), ws.field(i + 2)}
}

// NewWorkspace allocates the scratch space for cells on grid g.
func NewWorkspace(g *sht.Grid) *Workspace {
	n, nc := g.NumPoints(), sht.NumCoeffs(g.P)
	buf := make([]float64, numFields*n+2*nc)
	co := sht.Coeffs{P: g.P, A: buf[numFields*n : numFields*n+nc : numFields*n+nc], B: buf[numFields*n+nc:]}
	return &Workspace{sw: g.NewWork(), co: co, n: n, buf: buf[:numFields*n]}
}

// NewGeometry allocates the fields of a geometry of n grid points, in one
// slab.
func NewGeometry(n int) *Geometry {
	slab := make([]float64, 15*n)
	next := func() []float64 {
		f := slab[:n:n]
		slab = slab[n:]
		return f
	}
	geo := &Geometry{W: next(), H: next(), K: next(), E: next(), F: next(), G: next()}
	for d := 0; d < 3; d++ {
		geo.Normal[d], geo.Xt[d], geo.Xp[d] = next(), next(), next()
	}
	return geo
}

// ComputeGeometry evaluates the surface differential geometry spectrally.
func (c *Cell) ComputeGeometry() *Geometry {
	geo := NewGeometry(c.Grid.NumPoints())
	c.ComputeGeometryInto(geo, NewWorkspace(c.Grid))
	return geo
}

// ComputeGeometryInto is ComputeGeometry writing into geo (from
// NewGeometry) with scratch ws; it allocates nothing.
func (c *Cell) ComputeGeometryInto(geo *Geometry, ws *Workspace) {
	// Second derivatives in coefficient space (exact for band-limited
	// surfaces; re-transforming derivative *fields* would alias).
	xtt, xtp, xpp := ws.field3(fieldXtt), ws.field3(fieldXtp), ws.field3(fieldXpp)
	c.derivatives(geo.Xt, geo.Xp, ws, xtt, xtp, xpp)
	for k := range geo.W {
		xt, xp, W, nm := frame(geo.Xt, geo.Xp, k)
		E := dot(xt, xt)
		F := dot(xt, xp)
		G := dot(xp, xp)
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
}

// derivatives writes the first derivatives of X into xt and xp and its
// second derivatives into xtt, xtp and xpp, unless those are nil: per
// component one forward transform and one synthesis of every field.
func (c *Cell) derivatives(xt, xp [3][]float64, ws *Workspace, xtt, xtp, xpp [3][]float64) {
	g := c.Grid
	for d := 0; d < 3; d++ {
		g.ForwardInto(c.X[d], &ws.co, ws.sw)
		g.Synthesize(&ws.co, sht.Fields{T: xt[d], P: xp[d], TT: xtt[d], TP: xtp[d], PP: xpp[d]}, ws.sw)
	}
}

// frame returns the tangents at node k, the area element W = |X_θ × X_φ|
// and the outward unit normal.
func frame(xt, xp [3][]float64, k int) (t, p [3]float64, W float64, nm [3]float64) {
	t = [3]float64{xt[0][k], xt[1][k], xt[2][k]}
	p = [3]float64{xp[0][k], xp[1][k], xp[2][k]}
	cr := cross(t, p)
	W = math.Sqrt(dot(cr, cr))
	return t, p, W, [3]float64{cr[0] / W, cr[1] / W, cr[2] / W}
}

// surfaceElement returns c's area element and unit normal, ComputeGeometry's
// W and Normal to the bit, from the first derivatives alone: 3 forward and
// 6 inverse transforms. They are fields of ws.
func (c *Cell) surfaceElement(ws *Workspace) (w []float64, nrm [3][]float64) {
	xt, xp := ws.field3(fieldXt), ws.field3(fieldXp)
	c.derivatives(xt, xp, ws, [3][]float64{}, [3][]float64{}, [3][]float64{})
	w, nrm = ws.field(fieldW), ws.field3(fieldNrm)
	for k := range w {
		_, _, W, nm := frame(xt, xp, k)
		w[k] = W
		for d := 0; d < 3; d++ {
			nrm[d][k] = nm[d]
		}
	}
	return w, nrm
}

// SurfaceLaplacian applies the metric Laplace–Beltrami operator to the
// scalar grid field f using the (frozen) geometry geo:
// Δf = (1/W)[∂θ(W g^θθ f_θ + W g^θφ f_φ) + ∂φ(W g^θφ f_θ + W g^φφ f_φ)].
func (c *Cell) SurfaceLaplacian(geo *Geometry, f []float64) []float64 {
	out := make([]float64, len(f))
	c.SurfaceLaplacianInto(out, geo, f, NewWorkspace(c.Grid))
	return out
}

// SurfaceLaplacianInto is SurfaceLaplacian writing into dst with scratch
// ws; it allocates nothing. dst may be f.
func (c *Cell) SurfaceLaplacianInto(dst []float64, geo *Geometry, f []float64, ws *Workspace) {
	g := c.Grid
	ft, fp, Ft, Fp := ws.field(fieldFt), ws.field(fieldFp), ws.field(fieldFluxT), ws.field(fieldFluxP)
	g.ForwardInto(f, &ws.co, ws.sw)
	g.Synthesize(&ws.co, sht.Fields{T: ft, P: fp}, ws.sw)
	for k := range Ft {
		den := float64(geo.E[k]*geo.G[k]) - float64(geo.F[k]*geo.F[k])
		gtt := geo.G[k] / den
		gtp := -geo.F[k] / den
		gpp := geo.E[k] / den
		Ft[k] = geo.W[k] * (float64(gtt*ft[k]) + float64(gtp*fp[k]))
		Fp[k] = geo.W[k] * (float64(gtp*ft[k]) + float64(gpp*fp[k]))
	}
	// ft and fp are spent: they take ∂θ Ft and ∂φ Fp.
	g.ForwardInto(Ft, &ws.co, ws.sw)
	g.Synthesize(&ws.co, sht.Fields{T: ft}, ws.sw)
	g.ForwardInto(Fp, &ws.co, ws.sw)
	g.Synthesize(&ws.co, sht.Fields{P: fp}, ws.sw)
	for k := range dst {
		dst[k] = (ft[k] + fp[k]) / geo.W[k]
	}
}

// Area returns the surface area by spectral quadrature.
func (c *Cell) Area() float64 {
	ws := NewWorkspace(c.Grid)
	w, _ := c.surfaceElement(ws)
	// ∫ W dθdφ-measure: reuse the grid's solid-angle integration by
	// dividing out sinθ.
	return c.integrate(ws, func(k int, st float64) float64 { return w[k] / st })
}

// Volume returns the enclosed volume via the divergence theorem:
// V = (1/3)∮ X·n dA.
func (c *Cell) Volume() float64 {
	ws := NewWorkspace(c.Grid)
	w, nrm := c.surfaceElement(ws)
	return c.integrate(ws, func(k int, st float64) float64 {
		xn := float64(c.X[0][k]*nrm[0][k]) + float64(c.X[1][k]*nrm[1][k]) + float64(c.X[2][k]*nrm[2][k])
		return xn * w[k] / st / 3
	})
}

// Centroid returns the area-weighted centroid of the surface.
func (c *Cell) Centroid() [3]float64 {
	ws := NewWorkspace(c.Grid)
	w, _ := c.surfaceElement(ws)
	var out [3]float64
	for d := 0; d < 3; d++ {
		out[d] = c.integrate(ws, func(k int, st float64) float64 { return c.X[d][k] * w[k] / st })
	}
	area := c.integrate(ws, func(k int, st float64) float64 { return w[k] / st })
	return [3]float64{out[0] / area, out[1] / area, out[2] / area}
}

// integrate returns the grid's solid-angle integral of f(k, sin θ_k),
// tabulated into a field of ws first.
func (c *Cell) integrate(ws *Workspace, f func(k int, st float64) float64) float64 {
	g := c.Grid
	vals := ws.field(fieldVals)
	for i := 0; i < g.Nlat; i++ {
		st := math.Sin(g.Theta[i])
		for j := 0; j < g.Nlon; j++ {
			k := g.Index(i, j)
			vals[k] = f(k, st)
		}
	}
	return g.Integrate(vals)
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
