package la

import (
	"fmt"
	"math"
	"time"
)

// Operator applies a linear operator to x, writing the result into dst.
// dst and x never alias.
type Operator func(dst, x []float64)

// DotFunc computes an inner product. In distributed solves (as in the paper's
// PETSc GMRES over MPI) the local segments live on each rank and the DotFunc
// performs a global reduction; all ranks then execute identical GMRES
// recurrences.
type DotFunc func(x, y []float64) float64

// GMRESOptions configures a GMRES solve.
type GMRESOptions struct {
	// Tol is the relative residual tolerance (default 1e-10).
	Tol float64
	// MaxIters caps total iterations (default 200). The paper caps the
	// boundary solve at 30 iterations for its scaling runs (§5.1).
	MaxIters int
	// Restart is the Krylov subspace size before restart (default 60).
	Restart int
	// Dot overrides the inner product (nil means the serial Dot).
	Dot DotFunc
	// M, when non-nil, is a right preconditioner: GMRES builds the Krylov
	// space of A·M and returns x = x₀ + M(u), so the residual it monitors
	// (History, Residual, Tol) stays the true ‖b − A·x‖/‖b‖.
	M Operator
}

// GMRESResult reports the outcome of a GMRES solve, including its wall-time
// cost so solver time is attributable (per solve and per iteration) even
// when no telemetry registry is attached to the caller.
type GMRESResult struct {
	Iterations int
	Residual   float64 // final relative residual estimate
	Converged  bool
	History    []float64 // relative residual after each iteration
	// WallSec is the total wall time of the solve.
	WallSec float64
	// IterSec[i] is the wall time of Krylov iteration i (operator
	// application plus orthogonalization); len(IterSec) == len(History).
	// Wall-clock measurements — never part of a deterministic comparison.
	IterSec []float64
	// Breakdown is non-empty when the recurrence produced a non-finite
	// quantity (NaN/Inf in the rhs norm or a residual estimate) and the
	// solve was abandoned early. The solution vector is left at the last
	// finite restart point; callers treating this as fatal (the health
	// monitor does) get the exact iteration the numbers went bad.
	Breakdown string
}

func (o *GMRESOptions) defaults() {
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.MaxIters == 0 {
		o.MaxIters = 200
	}
	if o.Restart == 0 {
		o.Restart = 60
	}
	if o.Dot == nil {
		o.Dot = Dot
	}
}

// GMRES solves A*x = b for the operator A using restarted GMRES with modified
// Gram-Schmidt orthogonalization and Givens rotations, right-preconditioned
// when opt.M is set. x holds the initial guess on entry and the solution on
// return.
func GMRES(apply Operator, b, x []float64, opt GMRESOptions) (GMRESResult, error) {
	opt.defaults()
	start := time.Now()
	finish := func(r GMRESResult) GMRESResult {
		r.WallSec = time.Since(start).Seconds()
		return r
	}
	n := len(b)
	if len(x) != n {
		return GMRESResult{}, fmt.Errorf("la: GMRES size mismatch len(b)=%d len(x)=%d", n, len(x))
	}
	dot := opt.Dot
	norm := func(v []float64) float64 { return math.Sqrt(dot(v, v)) }

	bnorm := norm(b)
	if bnorm == 0 {
		Zero(x)
		return finish(GMRESResult{Converged: true, Residual: 0}), nil
	}
	if math.IsNaN(bnorm) || math.IsInf(bnorm, 0) {
		return finish(GMRESResult{Residual: bnorm, Breakdown: "non-finite rhs norm"}), nil
	}

	m := opt.Restart
	// Krylov basis and Hessenberg storage, grown as the iterations reach
	// them: a solve that converges in k iterations holds k+1 basis vectors
	// and k Hessenberg columns (column j has j+2 entries), whatever Restart
	// is. A restart cycle reuses what the cycles before it allocated.
	V := [][]float64{make([]float64, n)}
	var H [][]float64
	cs := make([]float64, m)
	sn := make([]float64, m)
	g := make([]float64, m+1)
	r := make([]float64, n)
	w := make([]float64, n)
	var z []float64 // M's output
	if opt.M != nil {
		z = make([]float64, n)
	}

	res := GMRESResult{}
	total := 0
	for total < opt.MaxIters {
		// r = b - A x; a zero guess has r = b without asking the operator.
		// apply may be collective, so the ranks decide together: the test
		// goes through dot (w is free until the Arnoldi loop).
		for i, v := range x {
			w[i] = 0
			if v != 0 {
				w[i] = 1
			}
		}
		if dot(w, w) == 0 {
			copy(r, b)
		} else {
			apply(w, x)
			Sub(r, b, w)
		}
		beta := norm(r)
		rel := beta / bnorm
		if math.IsNaN(rel) || math.IsInf(rel, 0) {
			res.Residual = rel
			res.Breakdown = fmt.Sprintf("non-finite residual at iteration %d", total)
			return finish(res), nil
		}
		if rel <= opt.Tol {
			res.Converged = true
			res.Residual = rel
			return finish(res), nil
		}
		copy(V[0], r)
		Scale(1/beta, V[0])
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		k := 0
		for ; k < m && total < opt.MaxIters; k++ {
			total++
			iterStart := time.Now()
			if opt.M != nil {
				opt.M(z, V[k])
				apply(w, z)
			} else {
				apply(w, V[k])
			}
			if k == len(H) {
				H = append(H, make([]float64, k+2))
				V = append(V, make([]float64, n))
			}
			hk := H[k]
			// Modified Gram-Schmidt.
			for i := 0; i <= k; i++ {
				h := dot(w, V[i])
				hk[i] = h
				Axpy(-h, V[i], w)
			}
			hk1 := norm(w)
			hk[k+1] = hk1
			if hk1 > 0 {
				copy(V[k+1], w)
				Scale(1/hk1, V[k+1])
			}
			// Apply accumulated Givens rotations to the new column.
			for i := 0; i < k; i++ {
				h0, h1 := hk[i], hk[i+1]
				hk[i] = float64(cs[i]*h0) + float64(sn[i]*h1)
				hk[i+1] = float64(-sn[i]*h0) + float64(cs[i]*h1)
			}
			// New rotation to eliminate H[k+1][k].
			h0, h1 := hk[k], hk[k+1]
			denom := math.Hypot(h0, h1)
			if denom == 0 {
				cs[k], sn[k] = 1, 0
			} else {
				cs[k], sn[k] = h0/denom, h1/denom
			}
			hk[k] = float64(cs[k]*h0) + float64(sn[k]*h1)
			hk[k+1] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]

			rel = math.Abs(g[k+1]) / bnorm
			res.History = append(res.History, rel)
			res.IterSec = append(res.IterSec, time.Since(iterStart).Seconds())
			if math.IsNaN(rel) || math.IsInf(rel, 0) {
				// Abandon without the triangular solve: y would be
				// poisoned, and x still holds the last finite restart.
				res.Iterations = total
				res.Residual = rel
				res.Breakdown = fmt.Sprintf("non-finite residual at iteration %d", total)
				return finish(res), nil
			}
			if rel <= opt.Tol {
				k++
				break
			}
		}
		// Solve the k x k triangular system H y = g.
		y := make([]float64, k)
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for j := i + 1; j < k; j++ {
				s -= float64(H[j][i] * y[j])
			}
			if H[i][i] == 0 {
				return finish(res), fmt.Errorf("la: GMRES breakdown, zero diagonal in Hessenberg at %d", i)
			}
			y[i] = s / H[i][i]
		}
		if opt.M != nil {
			// x += M(Σ yᵢ V[i]); w is free until the next cycle's residual.
			Zero(w)
			for i := 0; i < k; i++ {
				Axpy(y[i], V[i], w)
			}
			opt.M(z, w)
			Axpy(1, z, x)
		} else {
			for i := 0; i < k; i++ {
				Axpy(y[i], V[i], x)
			}
		}
		res.Iterations = total
		res.Residual = rel
		if rel <= opt.Tol {
			res.Converged = true
			return finish(res), nil
		}
	}
	return finish(res), nil
}
