package network

// Solver-convergence (CapGrading) suite, network half: the Y-bifurcation
// acceptance geometry and the deep binary tree. Together with
// internal/vessel's channel half this pins the edge-graded cap-rim
// discretization: GMRES reaches ≤ 1e-6 residual ABSOLUTELY on the blended
// Y-bifurcation at every grading level, the off-node boundary-condition
// residual decreases monotonically with grading and stays under an absolute
// bound at the default grading, the solved flow matches the reduced-order
// Poiseuille profiles at mid-segment probes, and the depth-2 binary tree —
// whose inner junctions used to demote to capsule caps and stall GMRES at
// O(1e-1) — now blends every node through the anisotropic collars and the
// blend-width ladder and converges absolutely too.

import (
	"math"
	"testing"

	"rbcflow/internal/bie"
	"rbcflow/internal/par"
	"rbcflow/internal/patch"
	"rbcflow/internal/quadrature"
)

// interpNodalBC interpolates a nodal field at an off-node parameter point
// of one patch.
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

// solveYGraded builds the test Y at the given grading level, solves, and
// returns the GMRES relative residual and the RMS off-node
// boundary-condition residual over the terminal-cap patches.
func solveYGraded(t *testing.T, lv int) (gmres, bcRMS float64) {
	t.Helper()
	n := testY()
	f, err := SolveFlow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGeometry(n, TubeParams{Order: 6, AxialLen: 3.5, gradeLevels: lv})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Surface(0, junctionBIE())
	bc := g.Inflow(s, f)
	var capPids []int
	for pid := range s.F.Patches {
		if g.Meta[s.F.RootOf[pid]].Kind == RootTerminalCap {
			capPids = append(capPids, pid)
		}
	}
	probes := [][2]float64{{0, 0.85}, {0.85, 0}, {-0.85, -0.85}, {0, 0}}
	plan := sharedPlan(s)
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sv := bie.NewWallOperator(c, s, bie.WithFMM(bie.FMMConfig{DirectBelow: 1 << 40}), bie.WithPlan(plan))
		phi, res := bie.Solve(c, sv, bc, nil, 1e-8, 45)
		gmres = res.Residual
		var gnorm float64
		for _, v := range bc {
			gnorm += v * v
		}
		gnorm = math.Sqrt(gnorm / float64(len(bc)/3))
		var sum float64
		var cnt int
		for _, pid := range capPids {
			for _, uv := range probes {
				u := sv.OnSurfaceVelocity(c, phi, pid, uv[0], uv[1])
				gx := interpNodalBC(s, bc, pid, uv[0], uv[1])
				for d := 0; d < 3; d++ {
					sum += (u[d] - gx[d]) * (u[d] - gx[d])
				}
				cnt++
			}
		}
		bcRMS = math.Sqrt(sum/float64(cnt)) / gnorm
	})
	return gmres, bcRMS
}

// TestCapGradingYBifurcationConvergence is the acceptance criterion:
// absolute GMRES convergence to ≤ 1e-6 on the blended Y-bifurcation at
// every grading level, with the observed discretization residual monotone
// in grading level and bounded at the default grading (2.89e-3 here; the
// seed-era ungraded rims gave 1.19e-1).
func TestCapGradingYBifurcationConvergence(t *testing.T) {
	levels := []int{1, DefaultGradeLevels}
	var rms []float64
	for _, lv := range levels {
		gmres, bcRMS := solveYGraded(t, lv)
		t.Logf("grade %2d: gmres %.3e, bc residual %.3e", lv, gmres, bcRMS)
		if gmres > 1e-6 {
			t.Fatalf("grade %d: GMRES relative residual %g exceeds 1e-6 on the Y-bifurcation", lv, gmres)
		}
		rms = append(rms, bcRMS)
	}
	for i := 1; i < len(rms); i++ {
		if rms[i] > rms[i-1]*1.1 {
			t.Fatalf("bc residual not monotone in grading level: %v at levels %v", rms, levels)
		}
	}
	if got := rms[len(rms)-1]; got > 2.38e-2 {
		t.Fatalf("graded bc residual %g exceeds 2.38e-2 (ladder %v)", got, rms)
	}
}

// TestCapGradingYFlowProfile is the flow-accuracy regression on the graded
// Y-bifurcation: the solved velocity at mid-segment centerline probes must
// match the reduced-order Poiseuille peak velocity of each segment. The
// bound is relative to each segment's vmax (1.01e-2 here; the seed-era
// ungraded rims gave 1.76e-2).
func TestCapGradingYFlowProfile(t *testing.T) {
	const tol = 1.84e-2
	n := testY()
	f, err := SolveFlow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGeometry(n, TubeParams{Order: 6, AxialLen: 3.5})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Surface(0, junctionBIE())
	bc := g.Inflow(s, f)
	var worst float64
	plan := sharedPlan(s)
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sv := bie.NewWallOperator(c, s, bie.WithFMM(bie.FMMConfig{DirectBelow: 1 << 40}), bie.WithPlan(plan))
		phi, res := bie.Solve(c, sv, bc, nil, 1e-8, 45)
		if res.Residual > 1e-6 {
			t.Errorf("residual %g", res.Residual)
			return
		}
		var targets [][3]float64
		var wants [][3]float64
		for si := range n.Segs {
			cu := n.Curve(si)
			mid := cu.Point(0.5)
			tan := cu.UnitTangent(0.5)
			r := n.Segs[si].Radius
			vmax := 2 * f.Q[si] / (math.Pi * r * r)
			targets = append(targets, mid)
			wants = append(wants, [3]float64{vmax * tan[0], vmax * tan[1], vmax * tan[2]})
		}
		var dEps float64
		for _, lm := range s.LMax {
			dEps = math.Max(dEps, s.P.NearFactor*lm)
		}
		cls := s.F.ClosestPoints(c, targets, dEps)
		u := sv.EvalVelocity(c, phi, targets, cls)
		for i := range targets {
			r := n.Segs[i].Radius
			vmax := 2 * f.Q[i] / (math.Pi * r * r)
			var e float64
			for d := 0; d < 3; d++ {
				e += (u[3*i+d] - wants[i][d]) * (u[3*i+d] - wants[i][d])
			}
			if rel := math.Sqrt(e) / math.Abs(vmax); rel > worst {
				worst = rel
			}
		}
	})
	t.Logf("worst mid-segment profile error %.3e", worst)
	if worst > tol {
		t.Fatalf("mid-segment velocity error %g exceeds %g", worst, tol)
	}
}

// TestCapGradingDeepTreeBlended is the multi-junction acceptance test: the
// depth-2 binary tree blends at EVERY node via the anisotropic per-azimuth
// collars and the blend-width ladder, and the solve at the default grading
// converges absolutely, within the 1.048e-8 the seed-era ungraded rims
// reached on the planar tree. The ladder is expected to engage (the tree is
// infeasible at the full blend width), so EffectiveBlend must come back
// strictly below the requested radius.
func TestCapGradingDeepTreeBlended(t *testing.T) {
	n := BinaryTree(TreeParams{Depth: 2, RootRadius: 1, RootLen: 5})
	n.SetFlow(0, 2)
	for _, term := range n.Terminals() {
		if term != 0 {
			n.SetPressure(term, 0)
		}
	}
	f, err := SolveFlow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	gg, err := BuildGeometry(n, TubeParams{Order: 4, AxialLen: 4.5})
	if err != nil {
		t.Fatal(err)
	}
	if gg.EffectiveBlend >= DefaultBlendRadius || gg.EffectiveBlend <= 0 {
		t.Fatalf("blend-width ladder should have engaged: EffectiveBlend %g (requested %g)",
			gg.EffectiveBlend, DefaultBlendRadius)
	}
	// Terminal caps are still graded stacks on the blended tree.
	capPatches := 0
	for _, m := range gg.Meta {
		if m.Kind == RootTerminalCap {
			capPatches++
		}
	}
	nTerm := len(gg.Caps)
	if want := nTerm * (1 + 4*(DefaultGradeLevels+1)); capPatches != want {
		t.Fatalf("graded tree has %d terminal-cap patches, want %d", capPatches, want)
	}
	s := gg.Surface(0, bie.Params{QuadNodes: 4, NearFactor: 0.6})
	bc := gg.Inflow(s, f)
	plan := sharedPlan(s)
	var resid float64
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sv := bie.NewWallOperator(c, s, bie.WithFMM(bie.FMMConfig{DirectBelow: 1 << 40}), bie.WithPlan(plan))
		_, res := bie.Solve(c, sv, bc, nil, 1e-8, 45)
		resid = res.Residual
	})
	t.Logf("effective blend %.3g; GMRES residual %.3e", gg.EffectiveBlend, resid)
	if resid > 1e-6 {
		t.Fatalf("GMRES residual %g exceeds 1e-6 on the blended deep tree", resid)
	}
	if resid > 1.04e-8 {
		t.Fatalf("GMRES residual %g exceeds 1.04e-8 on the blended deep tree", resid)
	}
	// Seeding remains safe against the blended wall (the geometry SDF, the
	// field at the width the ladder chose).
	H := SplitHaematocrit(n, f, HaematocritParams{Inlet: 0.15, Gamma: 1.4})
	cells := SeedCells(n, H, SeedParams{SphOrder: 4, CellRadius: 0.22, WallMargin: 0.06, Seed: 5})
	sdf := gg.SDF()
	for ci, c := range cells {
		for i := range c.X[0] {
			p := [3]float64{c.X[0][i], c.X[1][i], c.X[2][i]}
			if v := sdf(p); v >= 0 {
				t.Fatalf("cell %d surface point outside the blended wall (F=%g)", ci, v)
			}
		}
	}
	if len(cells) == 0 {
		t.Fatal("no cells seeded on the deep tree")
	}
}

// TestCapGradingSplitRootsShareRims verifies at the network level what
// patch.SplitEdgeGraded promises: the graded barrel stacks and cap annuli
// of a terminal end share their rim circle exactly (node-exact at
// Clenshaw-Curtis points of even orders).
func TestCapGradingSplitRootsShareRims(t *testing.T) {
	n := testY()
	g, err := BuildGeometry(n, TubeParams{Order: 6, AxialLen: 3.5})
	if err != nil {
		t.Fatal(err)
	}
	// Find the inlet cap (node 0) and its rim circle.
	var cp Cap
	for _, c := range g.Caps {
		if c.Node == 0 {
			cp = c
		}
	}
	// Every terminal-cap patch point must be in the cap plane, inside the
	// rim radius (to interpolation accuracy).
	for ri, m := range g.Meta {
		if m.Kind != RootTerminalCap || m.Node != 0 {
			continue
		}
		for _, uv := range [][2]float64{{0, 0}, {0.5, -0.5}, {-1, 1}, {1, 1}} {
			x := g.Roots[ri].Eval(uv[0], uv[1])
			dx := [3]float64{x[0] - cp.Center[0], x[1] - cp.Center[1], x[2] - cp.Center[2]}
			ax := patch.DotV(dx, cp.AxisIn)
			if math.Abs(ax) > 1e-9 {
				t.Fatalf("cap root %d point off the cap plane by %g", ri, ax)
			}
			rho := math.Sqrt(patch.DotV(dx, dx) - ax*ax)
			if rho > cp.Radius*(1+1e-7) {
				t.Fatalf("cap root %d point outside the rim: rho %g > r %g", ri, rho, cp.Radius)
			}
		}
	}
}
