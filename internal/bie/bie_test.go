package bie

import (
	"math"
	"testing"

	"rbcflow/internal/forest"
	"rbcflow/internal/kernels"
	"rbcflow/internal/par"
	"rbcflow/internal/patch"
)

// cubeSphere builds a cubed-sphere forest of radius r at the given level.
func cubeSphere(q int, r float64, level int) *forest.Forest {
	return stretchedCubeSphere(q, r, [3]float64{1, 1, 1}, level)
}

// stretchedCubeSphere is the cubed sphere scaled by the axis factors (the
// capsule container of the scenario registry).
func stretchedCubeSphere(q int, r float64, axes [3]float64, level int) *forest.Forest {
	mk := func(fix int, sign float64) *patch.Patch {
		return patch.FromFunc(q, func(u, v float64) [3]float64 {
			var p [3]float64
			p[fix] = sign
			p[(fix+1)%3] = u * sign
			p[(fix+2)%3] = v
			n := patch.Norm(p)
			return [3]float64{axes[0] * r * p[0] / n, axes[1] * r * p[1] / n, axes[2] * r * p[2] / n}
		})
	}
	var roots []*patch.Patch
	for fix := 0; fix < 3; fix++ {
		roots = append(roots, mk(fix, 1), mk(fix, -1))
	}
	return forest.NewUniform(roots, level)
}

func testParams() Params {
	return DefaultParams()
}

func TestSurfaceWeightsSumToArea(t *testing.T) {
	f := cubeSphere(8, 1, 0)
	s := NewSurface(f, testParams())
	var area float64
	for _, w := range s.W {
		area += w
	}
	want := 4 * math.Pi
	if math.Abs(area-want) > 5e-3*want {
		t.Fatalf("area %v want %v", area, want)
	}
}

func TestSurfaceNormalsOutward(t *testing.T) {
	f := cubeSphere(8, 1, 1)
	s := NewSurface(f, testParams())
	for k, n := range s.Nrm {
		// On a sphere centered at origin the outward normal is radial.
		r := patch.Normalize(s.Pts[k])
		if patch.DotV(n, r) < 0.99 {
			t.Fatalf("normal not outward at node %d: n=%v r=%v", k, n, r)
		}
	}
}

func TestInsideIndicator(t *testing.T) {
	f := cubeSphere(8, 1, 1)
	s := NewSurface(f, testParams())
	if v := s.InsideIndicator([3]float64{0.2, 0.1, -0.3}); math.Abs(v-1) > 1e-3 {
		t.Fatalf("inside indicator %v", v)
	}
	if v := s.InsideIndicator([3]float64{2, 0, 0}); math.Abs(v) > 1e-3 {
		t.Fatalf("outside indicator %v", v)
	}
}

func TestApplyConstantDensityIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("~20s convergence test; run without -short")
	}
	// For constant ϕ₀, (interior-limit D + N)ϕ₀ = ϕ₀ on a closed surface.
	f := cubeSphere(8, 1, 1)
	s := NewSurface(f, testParams())
	phi0 := [3]float64{0.7, -1.2, 0.4}
	plan := BuildQuadPlan(s, 0)
	par.Run(2, par.SKX(), func(c *par.Comm) {
		sv := NewWallOperator(c, s, WithFMM(FMMConfig{DirectBelow: 1 << 40}), WithPlan(plan))
		nOwn := sv.nodeHi - sv.nodeLo
		phi := make([]float64, 3*nOwn)
		for k := 0; k < nOwn; k++ {
			copy(phi[3*k:3*k+3], phi0[:])
		}
		u := sv.Apply(c, phi)
		for k := 0; k < nOwn; k++ {
			for d := 0; d < 3; d++ {
				if math.Abs(u[3*k+d]-phi0[d]) > 1e-3 {
					t.Errorf("node %d dim %d: %v want %v", k, d, u[3*k+d], phi0[d])
					return
				}
			}
		}
	})
}

// analyticStokes builds a smooth interior Stokes solution from Stokeslets
// placed outside the domain.
type analyticStokes struct {
	mu   float64
	srcs [][3]float64
	fs   [][3]float64
}

func newAnalyticStokes(mu float64) *analyticStokes {
	return &analyticStokes{
		mu: mu,
		srcs: [][3]float64{
			{2.5, 0.3, -0.1}, {-2.2, 1.1, 0.7}, {0.4, -2.8, 1.3},
		},
		fs: [][3]float64{
			{1, 0.5, -0.2}, {-0.3, 0.8, 1.1}, {0.6, -1.0, 0.4},
		},
	}
}

func (a *analyticStokes) At(x [3]float64) [3]float64 {
	var u [3]float64
	for i, s := range a.srcs {
		kernels.SingleLayerVel(u[:], a.mu, x, s, a.fs[i][:], 1)
	}
	return u
}

func TestSolveInteriorDirichlet(t *testing.T) {
	if testing.Short() {
		t.Skip("~30s convergence test; run without -short")
	}
	// The core Fig. 9 setup at fixed resolution: solve the BIE with boundary
	// data from an analytic exterior-Stokeslet field; the reconstructed
	// velocity must match the analytic field inside the domain.
	f := cubeSphere(8, 1, 1)
	s := NewSurface(f, testParams())
	an := newAnalyticStokes(1)

	plan := BuildQuadPlan(s, 0)
	for _, np := range []int{1, 2} {
		par.Run(np, par.SKX(), func(c *par.Comm) {
			sv := NewWallOperator(c, s, WithFMM(FMMConfig{DirectBelow: 1 << 40}), WithPlan(plan))
			nOwn := sv.nodeHi - sv.nodeLo
			rhs := make([]float64, 3*nOwn)
			for k := 0; k < nOwn; k++ {
				g := an.At(s.Pts[sv.nodeLo+k])
				copy(rhs[3*k:3*k+3], g[:])
			}
			// Discontinuous per-patch nodal bases leave a small cluster of
			// corner-localized near-null modes, so GMRES grinds below ~1e-4
			// (the paper likewise caps iterations, §5.1); solution accuracy
			// is set by the discretization, which the checks below verify.
			phi, res := Solve(c, sv, rhs, nil, 2e-4, 80)
			if res.Residual > 5e-3 {
				t.Errorf("np=%d: GMRES residual too large: %g after %d iters", np, res.Residual, res.Iterations)
				return
			}
			// Evaluate at interior points away from the wall.
			targets := [][3]float64{{0, 0, 0}, {0.3, -0.2, 0.1}, {-0.25, 0.3, -0.2}}
			var lo int
			lo, hi := par.BlockRange(len(targets), np, c.Rank())
			cls := make([]forest.Closest, hi-lo)
			for i := range cls {
				cls[i].PatchID = -1
			}
			u := sv.EvalVelocity(c, phi, targets[lo:hi], cls)
			for i := 0; i < hi-lo; i++ {
				want := an.At(targets[lo+i])
				for d := 0; d < 3; d++ {
					if math.Abs(u[3*i+d]-want[d]) > 3e-3*(1+math.Abs(want[d])) {
						t.Errorf("np=%d target %d dim %d: got %v want %v", np, lo+i, d, u[3*i+d], want[d])
					}
				}
			}
		})
	}
}

func TestOnSurfaceVelocityMatchesBC(t *testing.T) {
	if testing.Short() {
		t.Skip("~14s convergence test; run without -short")
	}
	// After solving, the on-surface velocity at NON-collocation points must
	// reproduce the boundary condition (the Fig. 9 error metric).
	f := cubeSphere(8, 1, 1)
	s := NewSurface(f, testParams())
	an := newAnalyticStokes(1)
	plan := BuildQuadPlan(s, 0)
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sv := NewWallOperator(c, s, WithFMM(FMMConfig{DirectBelow: 1 << 40}), WithPlan(plan))
		rhs := make([]float64, s.NumUnknowns())
		for k := range s.Pts {
			g := an.At(s.Pts[k])
			copy(rhs[3*k:3*k+3], g[:])
		}
		phi, res := Solve(c, sv, rhs, nil, 2e-4, 80)
		if res.Residual > 5e-3 {
			t.Fatalf("GMRES residual: %g", res.Residual)
		}
		var maxErr float64
		for _, pid := range []int{0, 5, 11, 17, 23} {
			for _, uv := range [][2]float64{{0.37, -0.21}, {-0.55, 0.63}} {
				x := s.F.Patches[pid].Eval(uv[0], uv[1])
				got := sv.OnSurfaceVelocity(c, phi, pid, uv[0], uv[1])
				want := an.At(x)
				for d := 0; d < 3; d++ {
					maxErr = math.Max(maxErr, math.Abs(got[d]-want[d]))
				}
			}
		}
		if maxErr > 5e-3 {
			t.Fatalf("on-surface velocity error %g", maxErr)
		}
	})
}

func TestGMRESIterationsBounded(t *testing.T) {
	// Paper §5.1: the well-conditioned second-kind system converges in ≤ 30
	// iterations.
	f := cubeSphere(8, 1, 0)
	s := NewSurface(f, testParams())
	an := newAnalyticStokes(1)
	plan := BuildQuadPlan(s, 0)
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sv := NewWallOperator(c, s, WithFMM(FMMConfig{DirectBelow: 1 << 40}), WithPlan(plan))
		rhs := make([]float64, s.NumUnknowns())
		for k := range s.Pts {
			g := an.At(s.Pts[k])
			copy(rhs[3*k:3*k+3], g[:])
		}
		// Paper's 30-iteration cap: the residual must be at the
		// discretization-error level by then.
		_, res := Solve(c, sv, rhs, nil, 1e-8, 30)
		if res.Residual > 2e-3 {
			t.Fatalf("GMRES residual after 30-iteration cap: %g", res.Residual)
		}
		// 11 iterations to 1e-8 with the coarse level, as without it: the
		// sphere has no thin-tube modes to deflate.
		if !res.Converged || res.Iterations > 13 {
			t.Fatalf("GMRES: converged %v in %d iterations, want ≤ 13", res.Converged, res.Iterations)
		}
		t.Logf("GMRES: %d iters, residual %g", res.Iterations, res.Residual)
	})
}

// TestShortLaneSolveAndEval is the -short-friendly end-to-end pass over the
// evaluation API: a light interior Dirichlet solve on the coarse sphere,
// interior velocity (far and near-wall, through the closest-point path),
// on-surface velocity at off-node points, and the surface bookkeeping
// helpers the geometry layers lean on.
func TestShortLaneSolveAndEval(t *testing.T) {
	f := cubeSphere(8, 1, 0)
	s := NewSurface(f, Params{QuadNodes: 5, NearFactor: 0.8})
	an := newAnalyticStokes(1)
	if got := s.NumNodes() * 3; got != s.NumUnknowns() {
		t.Fatalf("unknowns %d vs nodes %d", s.NumUnknowns(), s.NumNodes())
	}
	if v := s.EnclosedVolume(); math.Abs(v-4*math.Pi/3) > 2e-2 {
		t.Fatalf("sphere volume %g", v)
	}
	// Net flux of a radial unit field over the sphere is the area.
	g := make([]float64, s.NumUnknowns())
	for k, n := range s.Nrm {
		copy(g[3*k:3*k+3], n[:])
	}
	if fl := s.NetFlux(g, nil); math.Abs(fl-4*math.Pi) > 0.1 {
		t.Fatalf("radial net flux %g", fl)
	}
	plan := BuildQuadPlan(s, 0)
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sv := NewWallOperator(c, s, WithFMM(FMMConfig{DirectBelow: 1 << 40}), WithPlan(plan))
		rhs := make([]float64, s.NumUnknowns())
		for k := range s.Pts {
			gk := an.At(s.Pts[k])
			copy(rhs[3*k:3*k+3], gk[:])
		}
		phi, res := Solve(c, sv, rhs, nil, 1e-7, 40)
		if res.Residual > 1e-4 {
			t.Fatalf("residual %g", res.Residual)
		}
		// Interior targets: one far from the wall, one near it (closest-point
		// data routes it through the adaptive near path).
		targets := [][3]float64{{0.1, -0.2, 0.1}, {0.0, 0.0, 0.9}}
		var dEps float64
		for _, lm := range s.LMax {
			dEps = math.Max(dEps, s.P.NearFactor*lm)
		}
		cls := s.F.ClosestPoints(c, targets, dEps)
		u := sv.EvalVelocity(c, phi, targets, cls)
		for i, x := range targets {
			want := an.At(x)
			for d := 0; d < 3; d++ {
				if math.Abs(u[3*i+d]-want[d]) > 2e-2*(1+math.Abs(want[d])) {
					t.Fatalf("target %d dim %d: %g want %g", i, d, u[3*i+d], want[d])
				}
			}
		}
		// On-surface velocity at off-node points reproduces the BC.
		for _, pid := range []int{0, 3} {
			x := s.F.Patches[pid].Eval(0.37, -0.21)
			got := sv.OnSurfaceVelocity(c, phi, pid, 0.37, -0.21)
			want := an.At(x)
			for d := 0; d < 3; d++ {
				if math.Abs(got[d]-want[d]) > 3e-2*(1+math.Abs(want[d])) {
					t.Fatalf("on-surface pid %d dim %d: %g want %g", pid, d, got[d], want[d])
				}
			}
		}
	})
}
