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
// then sets X ← X + δX. It returns the solve's result: a cell whose solve
// stalled at the iteration cap (Converged false) or broke down on a
// non-finite right-hand side or residual (Breakdown set) still moves by
// whatever correction GMRES reached, and the caller decides what to record.
func (c *Cell) ImplicitStep(sq *SingularQuad, p ImplicitParams, b [3][]float64, fext [3][]float64) la.GMRESResult {
	n := c.Grid.NumPoints()
	ws := NewWorkspace(c.Grid)
	geo := NewGeometry(n)
	c.ComputeGeometryInto(geo, ws)

	// Right-hand side: Δt (b + S_i (f_b(X) + f_ext)). The force fields, fb
	// and then fl, and the velocities, ub and then ul, share one slab.
	slab := make([]float64, 6*n)
	var fb, ub [3][]float64
	for d := 0; d < 3; d++ {
		fb[d] = slab[d*n : (d+1)*n : (d+1)*n]
		ub[d] = slab[(3+d)*n : (4+d)*n : (4+d)*n]
	}
	c.bendingForceInto(fb, p.KappaB, geo, ws)
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
	self.ApplyInto(ub, fb)
	rhs := make([]float64, 3*n)
	for d := 0; d < 3; d++ {
		for k := 0; k < n; k++ {
			rhs[d*n+k] = p.Dt * (b[d][k] + ub[d][k])
		}
	}

	fl, ul := fb, ub
	var dX [3][]float64
	apply := func(dst, v []float64) {
		for d := 0; d < 3; d++ {
			dX[d] = v[d*n : (d+1)*n]
		}
		c.LinearizedBendingApply(fl, p.KappaB, geo, dX, ws)
		self.ApplyInto(ul, fl)
		for d := 0; d < 3; d++ {
			for k := 0; k < n; k++ {
				dst[d*n+k] = v[d*n+k] - float64(p.Dt*ul[d][k])
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
	return res
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
			r2 := float64(rx*rx) + float64(ry*ry) + float64(rz*rz)
			inv := 1 / math.Sqrt(r2)
			inv3 := inv / r2
			ws := w[s] * c8pi
			rdotf := float64(rx*f[0][s]) + float64(ry*f[1][s]) + float64(rz*f[2][s])
			acc[0] += float64(ws * (float64(f[0][s]*inv) + float64(rx*rdotf*inv3)))
			acc[1] += float64(ws * (float64(f[1][s]*inv) + float64(ry*rdotf*inv3)))
			acc[2] += float64(ws * (float64(f[2][s]*inv) + float64(rz*rdotf*inv3)))
		}
		out[0][t] = acc[0]
		out[1][t] = acc[1]
		out[2][t] = acc[2]
	}
	return out
}
