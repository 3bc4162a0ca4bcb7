package bie

import (
	"math"
	"testing"

	"rbcflow/internal/la"
	"rbcflow/internal/par"
)

// TestDebugDenseOperator assembles the Nyström matrix explicitly on a small
// sphere and solves densely, isolating operator-assembly issues from GMRES.
func TestDebugDenseOperator(t *testing.T) {
	if testing.Short() {
		t.Skip("~8s dense-assembly test; run without -short")
	}
	f := cubeSphere(8, 1, 0)
	s := NewSurface(f, testParams())
	an := newAnalyticStokes(1)
	n := s.NumUnknowns()
	plan := BuildQuadPlan(s, 0)
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sv := NewWallOperator(c, s, WithFMM(FMMConfig{DirectBelow: 1 << 40}), WithPlan(plan))
		A := la.NewDense(n, n)
		e := make([]float64, n)
		for j := 0; j < n; j++ {
			e[j] = 1
			col := sv.Apply(c, e)
			for i := 0; i < n; i++ {
				A.Set(i, j, col[i])
			}
			e[j] = 0
		}
		rhs := make([]float64, n)
		for k := range s.Pts {
			g := an.At(s.Pts[k])
			copy(rhs[3*k:3*k+3], g[:])
		}
		phi, err := la.SolveDense(A, rhs)
		if err != nil {
			t.Fatalf("dense solve: %v", err)
		}
		// Residual of the dense solve.
		chk := make([]float64, n)
		A.MulVec(chk, phi)
		la.Sub(chk, rhs, chk)
		t.Logf("dense solve residual: %g", la.Norm2(chk)/la.Norm2(rhs))
		t.Logf("phi norm: %g rhs norm: %g", la.Norm2(phi), la.Norm2(rhs))

		// Interior evaluation via direct coarse quadrature (point far from
		// the wall, smooth rule fine).
		x := [3]float64{0.1, -0.05, 0.2}
		var u [3]float64
		for k, y := range s.Pts {
			addDLBlockVec(u[:], x, y, s.Nrm[k], phi[3*k:3*k+3], s.W[k])
		}
		want := an.At(x)
		t.Logf("interior u: %v want %v", u, want)
		for d := 0; d < 3; d++ {
			if math.Abs(u[d]-want[d]) > 2e-2*(1+math.Abs(want[d])) {
				t.Errorf("interior mismatch dim %d: %v vs %v", d, u[d], want[d])
			}
		}
	})
}

func addDLBlockVec(dst []float64, x, y, nrm [3]float64, phi []float64, w float64) {
	rx, ry, rz := x[0]-y[0], x[1]-y[1], x[2]-y[2]
	r2 := rx*rx + ry*ry + rz*rz
	if r2 == 0 {
		return
	}
	inv := 1 / math.Sqrt(r2)
	inv5 := inv * inv * inv * inv * inv
	rdotPhi := rx*phi[0] + ry*phi[1] + rz*phi[2]
	rdotN := rx*nrm[0] + ry*nrm[1] + rz*nrm[2]
	c := -3 / (4 * math.Pi) * inv5 * rdotPhi * rdotN * w
	dst[0] += c * rx
	dst[1] += c * ry
	dst[2] += c * rz
}
