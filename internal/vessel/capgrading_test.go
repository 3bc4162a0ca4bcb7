package vessel

// Solver-convergence (CapGrading) suite, channel half: the capped straight
// tube ("capsule channel") and the capped torus arc at the seed channel
// parameters. Pins the acceptance criteria of the edge-graded cap-rim
// discretization:
//
//   - GMRES reaches ≤ 1e-6 relative residual ABSOLUTELY on every capped
//     geometry at every grading level.
//   - The observed discretization residual — the mismatch between the
//     reconstructed on-surface velocity and the boundary condition at
//     off-node probe points — decreases monotonically with grading level
//     and stays under an absolute bound at the default grading.
//   - The solved interior flow matches the exact Poiseuille solution on
//     the graded capped tube.
//
// Everything here runs in -short (the acceptance lane is
// `go test ./internal/... -run CapGrading -short`).

import (
	"math"
	"testing"

	"rbcflow/internal/bie"
	"rbcflow/internal/forest"
	"rbcflow/internal/par"
	"rbcflow/internal/quadrature"
)

// capGradingBIE is the light channel discretization the suite solves on.
func capGradingBIE() bie.Params {
	return bie.Params{QuadNodes: 5, NearFactor: 0.6}
}

// interpNodalBC interpolates a nodal field at an off-node parameter point
// of one patch (barycentric Lagrange on the coarse Gauss-Legendre grid).
func interpNodalBC(s *bie.Surface, bc []float64, pid int, uu, vv float64) [3]float64 {
	nodes := s.Nodes1D()
	bw := quadrature.BaryWeights(nodes)
	cu := quadrature.LagrangeCoeffs(nodes, bw, uu)
	cv := quadrature.LagrangeCoeffs(nodes, bw, vv)
	var out [3]float64
	q := len(nodes)
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			cij := cu[i] * cv[j]
			k := pid*s.NQ + i*q + j
			for d := 0; d < 3; d++ {
				out[d] += cij * bc[3*k+d]
			}
		}
	}
	return out
}

// bcProbePoints are the off-node parameter points at which the
// discretization residual is sampled (biased toward patch edges, where the
// rim corner bites).
var bcProbePoints = [][2]float64{{0, 0.85}, {0.85, 0}, {-0.85, -0.85}, {0.45, -0.85}, {0, 0}}

// solveAndProbe runs the boundary solve and returns the GMRES relative
// residual plus the RMS boundary-condition residual at off-node probes on
// the listed patches, normalized by the RMS boundary speed.
func solveAndProbe(t *testing.T, s *bie.Surface, bc []float64, probePids []int) (gmres, bcRMS float64, phi []float64) {
	t.Helper()
	plan := bie.BuildQuadPlan(s, 0)
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sv := bie.NewWallOperator(c, s, bie.WithFMM(bie.FMMConfig{DirectBelow: 1 << 40}), bie.WithPlan(plan))
		ph, r := bie.Solve(c, sv, bc, nil, 1e-8, 45)
		phi = ph
		gmres = r.Residual
		var gnorm float64
		for _, v := range bc {
			gnorm += v * v
		}
		gnorm = math.Sqrt(gnorm / float64(len(bc)/3))
		var sum float64
		var cnt int
		for _, pid := range probePids {
			for _, uv := range bcProbePoints {
				u := sv.OnSurfaceVelocity(c, phi, pid, uv[0], uv[1])
				g := interpNodalBC(s, bc, pid, uv[0], uv[1])
				for d := 0; d < 3; d++ {
					sum += (u[d] - g[d]) * (u[d] - g[d])
				}
				cnt++
			}
		}
		bcRMS = math.Sqrt(sum/float64(cnt)) / gnorm
	})
	return gmres, bcRMS, phi
}

// assertMonotone checks that vals decreases (non-strictly, within slack)
// along the ladder and that the last entry improves on the first.
func assertMonotone(t *testing.T, tag string, levels []int, vals []float64, slack float64) {
	t.Helper()
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1]*slack {
			t.Fatalf("%s: residual not monotone in grading level: level %d gives %g, level %d gives %g",
				tag, levels[i-1], vals[i-1], levels[i], vals[i])
		}
	}
	if vals[len(vals)-1] >= vals[0] {
		t.Fatalf("%s: grading did not reduce the residual: %v across levels %v", tag, vals, levels)
	}
}

func TestCapGradingCapsuleChannelConvergence(t *testing.T) {
	const r, L, Q = 1.0, 6.0, math.Pi / 2
	levels := []int{0, 2}
	var rms []float64
	for _, lv := range levels {
		cc := CappedTubeChannel(6, 4, r, L, 2.5, lv)
		s := bie.NewSurface(forest.NewUniform(cc.Roots, 0), capGradingBIE())
		bc := cc.Inflow(s, Q)
		// Discrete solvability: net flux through the caps balances exactly.
		if net := s.NetFlux(bc, nil); math.Abs(net) > 1e-12*Q {
			t.Fatalf("grade %d: net flux %g", lv, net)
		}
		gmres, bcRMS, _ := solveAndProbe(t, s, bc, cc.Caps[0].Roots)
		t.Logf("grade %2d: %d nodes, gmres %.3e, bc residual %.3e", lv, s.NumNodes(), gmres, bcRMS)
		// The absolute acceptance bar: every grading level must converge
		// below 1e-6 — the seed-era Nyström scheme stalled at O(1e-1).
		if gmres > 1e-6 {
			t.Fatalf("grade %d: GMRES relative residual %g exceeds 1e-6", lv, gmres)
		}
		rms = append(rms, bcRMS)
	}
	assertMonotone(t, "capsule channel", levels, rms, 1.1)
	// At the default grading the corner density is resolved (1.52e-3 here;
	// the seed-era single-squircle caps gave 6.78e-2).
	if got := rms[len(rms)-1]; got > 1.35e-2 {
		t.Fatalf("graded bc residual %g exceeds 1.35e-2", got)
	}
}

func TestCapGradingTorusChannelConvergence(t *testing.T) {
	const R, r, arc, Q = 3.0, 1.0, 3 * math.Pi / 2, 1.0
	levels := []int{1, 2}
	var rms []float64
	for _, lv := range levels {
		cc := CappedTorusChannel(6, 6, 4, R, r, arc, lv)
		s := bie.NewSurface(forest.NewUniform(cc.Roots, 0), capGradingBIE())
		bc := cc.Inflow(s, Q)
		if net := s.NetFlux(bc, nil); math.Abs(net) > 1e-12*Q {
			t.Fatalf("grade %d: net flux %g", lv, net)
		}
		gmres, bcRMS, _ := solveAndProbe(t, s, bc, cc.Caps[1].Roots)
		t.Logf("grade %2d: %d nodes, gmres %.3e, bc residual %.3e", lv, s.NumNodes(), gmres, bcRMS)
		if gmres > 1e-6 {
			t.Fatalf("grade %d: GMRES relative residual %g exceeds 1e-6 on the seed torus at channel parameters", lv, gmres)
		}
		rms = append(rms, bcRMS)
	}
	assertMonotone(t, "torus channel", levels, rms, 1.1)
}

// TestCapGradingTubePoiseuilleFlow is the flow-accuracy regression: the
// capped tube with flux-matched parabolic caps has the exact Stokes
// solution u = vmax(1-ρ²/r²)ẑ, so the solved interior velocity at the
// default grading is compared against it directly (8.23e-4 here; the
// seed-era ungraded caps gave 6.85e-3).
func TestCapGradingTubePoiseuilleFlow(t *testing.T) {
	const r, L, tol = 1.0, 6.0, 3e-3
	Q := math.Pi * r * r / 2 // vmax = 2Q/(πr²) = 1
	cc := CappedTubeChannel(6, 4, r, L, 2.5, 2)
	s := bie.NewSurface(forest.NewUniform(cc.Roots, 0), capGradingBIE())
	bc := cc.Inflow(s, Q)
	var maxErr float64
	plan := bie.BuildQuadPlan(s, 0)
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sv := bie.NewWallOperator(c, s, bie.WithFMM(bie.FMMConfig{DirectBelow: 1 << 40}), bie.WithPlan(plan))
		phi, res := bie.Solve(c, sv, bc, nil, 1e-8, 45)
		if res.Residual > 1e-6 {
			t.Errorf("residual %g", res.Residual)
			return
		}
		targets := [][3]float64{
			{0, 0, 3}, {0.5, 0, 3}, {0, 0.4, 2.5}, {-0.3, 0.3, 3.5}, {0.7, 0, 3},
		}
		// Closest-point data so near-wall probes get the adaptive
		// near-singular treatment.
		var dEps float64
		for _, lm := range s.LMax {
			dEps = math.Max(dEps, s.P.NearFactor*lm)
		}
		cls := s.F.ClosestPoints(c, targets, dEps)
		u := sv.EvalVelocity(c, phi, targets, cls)
		for i, x := range targets {
			rho2 := x[0]*x[0] + x[1]*x[1]
			want := 1 - rho2/(r*r)
			e := math.Abs(u[3*i+2]-want) + math.Abs(u[3*i]) + math.Abs(u[3*i+1])
			if e > maxErr {
				maxErr = e
			}
		}
	})
	t.Logf("max Poiseuille probe error %.3e", maxErr)
	if maxErr > tol {
		t.Fatalf("Poiseuille probe error %g exceeds %g", maxErr, tol)
	}
}

// TestCapGradingChannelGeometry pins the builders themselves: watertight
// closure, exact rim sharing between barrel and graded cap stacks, outward
// orientation, and the flux-matched inflow.
func TestCapGradingChannelGeometry(t *testing.T) {
	cc := CappedTubeChannel(6, 4, 1, 6, 2.5, 2)
	s := bie.NewSurface(forest.NewUniform(cc.Roots, 0), capGradingBIE())
	// Closure identity ∮ n dA = 0 for a watertight union.
	var nx, ny, nz, area float64
	for k, nr := range s.Nrm {
		nx += nr[0] * s.W[k]
		ny += nr[1] * s.W[k]
		nz += nr[2] * s.W[k]
		area += s.W[k]
	}
	if defect := math.Sqrt(nx*nx+ny*ny+nz*nz) / area; defect > 1e-6 {
		t.Fatalf("graded capped tube closure defect %g", defect)
	}
	// Volume matches πr²L.
	if v, want := s.EnclosedVolume(), math.Pi*6.0; math.Abs(v-want) > 1e-3*want {
		t.Fatalf("volume %g want %g", v, want)
	}
	// Indicator: inside the channel, outside beyond the caps.
	if v := s.InsideIndicator([3]float64{0, 0, 3}); math.Abs(v-1) > 1e-2 {
		t.Fatalf("inside indicator %g", v)
	}
	if v := s.InsideIndicator([3]float64{0, 0, 7.5}); math.Abs(v) > 1e-2 {
		t.Fatalf("outside indicator %g", v)
	}
	// The torus arc shares the same properties.
	ct := CappedTorusChannel(6, 6, 4, 3, 1, 3*math.Pi/2, 2)
	st := bie.NewSurface(forest.NewUniform(ct.Roots, 0), capGradingBIE())
	var tnx, tny, tnz, tarea float64
	for k, nr := range st.Nrm {
		tnx += nr[0] * st.W[k]
		tny += nr[1] * st.W[k]
		tnz += nr[2] * st.W[k]
		tarea += st.W[k]
	}
	if defect := math.Sqrt(tnx*tnx+tny*tny+tnz*tnz) / tarea; defect > 1e-6 {
		t.Fatalf("graded torus arc closure defect %g", defect)
	}
	// Volume ≈ 2π²Rr²·(arc/2π) = π²·... for R=3, r=1, arc=3π/2: (3/4)·2π²·3.
	want := 0.75 * 2 * math.Pi * math.Pi * 3
	if v := st.EnclosedVolume(); math.Abs(v-want) > 5e-3*want {
		t.Fatalf("torus arc volume %g want %g", v, want)
	}
}
