package rbc

import (
	"math"

	"rbcflow/internal/la"
)

// ImplicitParams configures the per-cell locally-implicit solve
// (paper Eq. 2.12): X⁺ = X + Δt (b + S_i f_i(X⁺)).
type ImplicitParams struct {
	Dt     float64
	Mu     float64
	KappaB float64
}

// The implicit solve's GMRES tolerance and iteration cap (unrestarted).
const (
	implicitGMRESTol = 1e-8
	implicitGMRESMax = 60
)

// ImplicitStep advances one cell with explicit background velocity b
// (component-major grid field) and implicit self-interaction of the
// linearized bending force. fext is an additional explicit force density
// (gravity, contact forces); it may be nil. It solves
//
//	(I − Δt S_i L_b) δX = Δt (b + S_i (f_b(X) + f_ext))
//
// with GMRES, where L_b is the frozen-geometry linearized bending operator,
// then sets X ← X + δX. Returns the GMRES iteration count.
func (c *Cell) ImplicitStep(sq *SingularQuad, p ImplicitParams, b [3][]float64, fext [3][]float64) int {
	geo := c.ComputeGeometry()
	n := c.Grid.NumPoints()

	// Right-hand side: Δt (b + S_i (f_b(X) + f_ext)).
	fb := c.BendingForce(p.KappaB, geo)
	if fext[0] != nil {
		for d := 0; d < 3; d++ {
			for k := range fb[d] {
				fb[d][k] += fext[d][k]
			}
		}
	}
	// The self-interaction at the frozen geometry, assembled once and applied
	// to the right-hand side and in every GMRES iteration.
	self := c.NewSelfOperator(sq, geo, p.Mu)
	defer self.Release()
	ub := self.Apply(fb)
	rhs := make([]float64, 3*n)
	for d := 0; d < 3; d++ {
		for k := 0; k < n; k++ {
			rhs[d*n+k] = p.Dt * (b[d][k] + ub[d][k])
		}
	}

	var dX [3][]float64
	apply := func(dst, v []float64) {
		for d := 0; d < 3; d++ {
			dX[d] = v[d*n : (d+1)*n]
		}
		fl := c.LinearizedBendingApply(p.KappaB, geo, dX)
		ul := self.Apply(fl)
		for d := 0; d < 3; d++ {
			for k := 0; k < n; k++ {
				dst[d*n+k] = v[d*n+k] - p.Dt*ul[d][k]
			}
		}
	}
	sol := make([]float64, 3*n)
	res, err := la.GMRES(apply, rhs, sol, la.GMRESOptions{
		Tol: implicitGMRESTol, MaxIters: implicitGMRESMax, Restart: implicitGMRESMax,
	})
	if err != nil {
		panic("rbc: implicit GMRES: " + err.Error())
	}
	for d := 0; d < 3; d++ {
		for k := 0; k < n; k++ {
			c.X[d][k] += sol[d*n+k]
		}
	}
	return res.Iterations
}

// ExplicitVelocity computes the velocity the cell induces on itself,
// u = S_i (f_b + extra), used when assembling inter-cell interactions: the
// FMM sums over ALL cell sources, and the smooth self part must be
// subtracted before the accurate singular self term is added implicitly.
// SmoothSelfVelocity returns the INACCURATE smooth-quadrature self sum that
// the FMM would have contributed, for exactly that subtraction.
func (c *Cell) SmoothSelfVelocity(geo *Geometry, mu float64, f [3][]float64) [3][]float64 {
	n := c.Grid.NumPoints()
	w := c.QuadWeights(geo)
	pts := c.Points()
	var out [3][]float64
	for d := 0; d < 3; d++ {
		out[d] = make([]float64, n)
	}
	c8pi := 1 / (8 * math.Pi * mu)
	for t := 0; t < n; t++ {
		x := pts[t]
		var acc [3]float64
		for s := 0; s < n; s++ {
			if s == t {
				continue
			}
			rx, ry, rz := x[0]-pts[s][0], x[1]-pts[s][1], x[2]-pts[s][2]
			r2 := rx*rx + ry*ry + rz*rz
			inv := 1 / math.Sqrt(r2)
			inv3 := inv / r2
			ws := w[s] * c8pi
			rdotf := rx*f[0][s] + ry*f[1][s] + rz*f[2][s]
			acc[0] += ws * (f[0][s]*inv + rx*rdotf*inv3)
			acc[1] += ws * (f[1][s]*inv + ry*rdotf*inv3)
			acc[2] += ws * (f[2][s]*inv + rz*rdotf*inv3)
		}
		out[0][t] = acc[0]
		out[1][t] = acc[1]
		out[2][t] = acc[2]
	}
	return out
}
