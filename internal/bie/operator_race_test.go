package bie

import (
	"math"
	"sync"
	"testing"

	"rbcflow/internal/par"
)

// TestConcurrentSolveAndEval pins the concurrency contract of the operator
// layer: one Solver (and one shared plan) serving several independent
// single-rank worlds at once — the campaign-worker usage pattern — must
// race-cleanly produce the same results as a lone caller. Run under the CI
// race lane; the shared mutable state this guards is the pooled
// adaptiveCtx (formerly one context per solver).
func TestConcurrentSolveAndEval(t *testing.T) {
	s := planSphere()
	an := newAnalyticStokes(1)
	plan := BuildQuadPlan(s, 2)
	rhs := make([]float64, s.NumUnknowns())
	for k := range s.Pts {
		g := an.At(s.Pts[k])
		copy(rhs[3*k:3*k+3], g[:])
	}
	var dEps float64
	for _, lm := range s.LMax {
		dEps = math.Max(dEps, s.P.NearFactor*lm)
	}
	targets := [][3]float64{{0.1, -0.2, 0.1}, {0.0, 0.0, 0.9}} // far + near-wall

	var sv *Solver
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sv = NewWallOperator(c, s, WithFMM(FMMConfig{DirectBelow: 1 << 40}), WithPlan(plan))
	})

	type result struct {
		phi  []float64
		u    []float64
		onSv [3]float64
	}
	const goroutines = 4
	results := make([]result, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			par.Run(1, par.SKX(), func(c *par.Comm) {
				phi, res := Solve(c, sv, rhs, nil, 1e-7, 40)
				if res.Residual > 1e-4 {
					t.Errorf("goroutine %d: residual %g", gi, res.Residual)
				}
				cls := s.F.ClosestPoints(c, targets, dEps)
				u := sv.EvalVelocity(c, phi, targets, cls)
				onSv := sv.OnSurfaceVelocity(c, phi, 0, 0.37, -0.21)
				results[gi] = result{phi: phi, u: u, onSv: onSv}
			})
		}(gi)
	}
	wg.Wait()

	for gi := 1; gi < goroutines; gi++ {
		for i := range results[0].phi {
			if math.Float64bits(results[0].phi[i]) != math.Float64bits(results[gi].phi[i]) {
				t.Fatalf("goroutine %d: solution differs at entry %d", gi, i)
			}
		}
		for i := range results[0].u {
			if math.Float64bits(results[0].u[i]) != math.Float64bits(results[gi].u[i]) {
				t.Fatalf("goroutine %d: EvalVelocity differs at entry %d", gi, i)
			}
		}
		for d := 0; d < 3; d++ {
			if math.Float64bits(results[0].onSv[d]) != math.Float64bits(results[gi].onSv[d]) {
				t.Fatalf("goroutine %d: OnSurfaceVelocity differs in dim %d", gi, d)
			}
		}
	}
}
