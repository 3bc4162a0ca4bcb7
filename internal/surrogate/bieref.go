package surrogate

import (
	"fmt"
	"math"

	"rbcflow/internal/bie"
	"rbcflow/internal/network"
	"rbcflow/internal/par"
)

// BIEReferenceConfig shapes the full boundary-integral reference
// measurement the calibration factors are fitted against.
type BIEReferenceConfig struct {
	// Level is the wall refinement level (default 0).
	Level int
	// Tol / MaxIter control the GMRES solve (defaults 1e-6, 45).
	Tol     float64
	MaxIter int
}

func (c BIEReferenceConfig) withDefaults() BIEReferenceConfig {
	if c.Tol == 0 {
		c.Tol = 1e-6
	}
	if c.MaxIter == 0 {
		c.MaxIter = 45
	}
	return c
}

// ID renders the reference identity folded into the artifact fingerprint.
func (c BIEReferenceConfig) ID() string {
	c = c.withDefaults()
	return fmt.Sprintf("bie:level=%d,tol=%g,maxiter=%d", c.Level, c.Tol, c.MaxIter)
}

// BIEReference measures mid-segment centerline velocities with a full
// boundary-integral solve on the swept-tube geometry of the case network,
// driven by the surrogate's own converged flow (so both tiers see identical
// boundary fluxes). The surrogate prediction at each probe is the
// Poiseuille peak velocity 2Q/(πr²) along the local tangent; the sample
// pairs its magnitude with the measured axial velocity component.
func BIEReference(cfg BIEReferenceConfig) Reference {
	cfg = cfg.withDefaults()
	return func(cs Case, res *Result) ([]Sample, error) {
		n := cs.Net
		g, err := network.BuildGeometry(n, network.TubeParams{Order: 6, AxialLen: 3.5})
		if err != nil {
			return nil, err
		}
		s := g.Surface(cfg.Level, bie.Params{QuadNodes: 5, NearFactor: 0.6})
		bc := g.Inflow(s, res.Flow)
		var samples []Sample
		var solveErr error
		plan := bie.BuildQuadPlan(s, 0)
		par.Run(1, par.SKX(), func(c *par.Comm) {
			sv := bie.NewWallOperator(c, s, bie.WithFMM(bie.FMMConfig{DirectBelow: 1 << 40}), bie.WithPlan(plan))
			phi, gr := bie.Solve(c, sv, bc, nil, cfg.Tol, cfg.MaxIter)
			if gr.Residual > 10*cfg.Tol {
				solveErr = fmt.Errorf("reference GMRES stalled at residual %g (tol %g)", gr.Residual, cfg.Tol)
				return
			}
			targets := make([][3]float64, len(n.Segs))
			tans := make([][3]float64, len(n.Segs))
			for si := range n.Segs {
				cu := n.Curve(si)
				targets[si] = cu.Point(0.5)
				tans[si] = cu.UnitTangent(0.5)
			}
			var dEps float64
			for _, lm := range s.LMax {
				dEps = math.Max(dEps, s.P.NearFactor*lm)
			}
			cls := s.F.ClosestPoints(c, targets, dEps)
			u := sv.EvalVelocity(c, phi, targets, cls)
			for si, sg := range n.Segs {
				vmax := 2 * res.Flow.Q[si] / (math.Pi * sg.Radius * sg.Radius)
				measured := u[3*si]*tans[si][0] + u[3*si+1]*tans[si][1] + u[3*si+2]*tans[si][2]
				samples = append(samples, Sample{Radius: sg.Radius, Predicted: vmax, Measured: measured})
			}
		})
		if solveErr != nil {
			return nil, solveErr
		}
		return samples, nil
	}
}

// BuiltinCases are the small networks the shipped calibration is fitted on:
// the canonical Y bifurcation and the depth-2 binary tree, at the scenario
// registry's default boundary conditions.
func BuiltinCases(prm Params) []Case {
	y := network.YBifurcation(network.YParams{
		ParentRadius: 1, ChildRadius: 0.75, ParentLen: 5, ChildLen: 4, HalfAngle: math.Pi / 5,
	})
	y.SetFlow(0, 2)
	y.SetPressure(2, 0)
	y.SetPressure(3, 0)
	tree := network.BinaryTree(network.TreeParams{Depth: 2, RootRadius: 1, RootLen: 5})
	tree.SetFlow(0, 2)
	for _, term := range tree.Terminals() {
		if term != 0 {
			tree.SetPressure(term, 0)
		}
	}
	return []Case{
		{Name: "network-y", Net: y, Params: prm},
		{Name: "network-tree-d2", Net: tree, Params: prm},
	}
}

// CalibrateBuiltin runs the built-in calibration suite against full BIE
// references and returns the artifact with its report. The radius bin edge
// at 0.8 separates the parent-vessel regime (radius ~1) from the child
// branches (radius ≤ 0.75).
func CalibrateBuiltin(cfg BIEReferenceConfig, prm Params) (*Calibration, *Report, error) {
	return Calibrate(BuiltinCases(prm), BIEReference(cfg), CalibrateConfig{
		Edges:    []float64{0.8},
		Rheology: prm.Rheology,
		RefID:    cfg.ID(),
	})
}
