package surrogate

import (
	"fmt"
	"math"

	"rbcflow/internal/network"
)

// Params configures one surrogate-tier solve. The zero value is usable:
// every field defaults as documented.
type Params struct {
	Rheology Rheology
	// InletHct is the discharge haematocrit carried by every inflow
	// terminal, taken literally: 0 means plasma-only flow, which collapses
	// the fixed point to a single constant-viscosity solve.
	InletHct float64
	// Gamma is the plasma-skimming exponent (0 = network default 1.4).
	Gamma float64
	// Relax is the under-relaxation weight of the damped fixed point:
	// mu ← mu + Relax·(mu_eff(R,H) − mu). Default 0.5.
	Relax float64
	// Tol is the convergence tolerance on the relative viscosity update
	// max-norm (default 1e-10).
	Tol float64
	// MaxIter bounds the outer fixed-point iterations (default 100).
	MaxIter int

	// Calibration, when non-nil, supplies the per-regime velocity
	// correction factors applied to Result.CorrectedVelocity.
	Calibration *Calibration
}

func (p Params) withDefaults() Params {
	p.Rheology = p.Rheology.withDefaults()
	if p.Relax == 0 {
		p.Relax = 0.5
	}
	if p.Tol == 0 {
		p.Tol = 1e-10
	}
	if p.MaxIter == 0 {
		p.MaxIter = 100
	}
	return p
}

// Result is one converged surrogate-tier solution.
type Result struct {
	Flow *network.FlowSolution
	// Hct is the per-segment discharge haematocrit at the converged point.
	Hct []float64
	// Mu is the converged per-segment effective viscosity.
	Mu []float64
	// MeanVelocity is Q/(πr²) per segment; CorrectedVelocity applies the
	// calibration's per-regime factor (nil without a Calibration).
	MeanVelocity      []float64
	CorrectedVelocity []float64
	// Iters is the number of outer fixed-point iterations executed;
	// Residual the final relative viscosity-update max-norm; Converged
	// whether Residual ≤ Tol within MaxIter.
	Iters     int
	Residual  float64
	Converged bool
	// FlowImbalance / RBCImbalance are the worst mass and RBC-flux
	// conservation violations at the converged point.
	FlowImbalance float64
	RBCImbalance  float64
	// Sparse reports which network.SolveFlowVisc backend ran; CGIters
	// totals the CG iterations across all fixed-point steps (0 on dense LU).
	Sparse  bool
	CGIters int
}

// Solve runs the damped fixed-point coupling of flow ⇄ plasma-skimming
// haematocrit ⇄ effective viscosity on the network: each outer iteration
// solves the Poiseuille/Kirchhoff system at the current per-segment
// viscosity, re-splits haematocrit along the new flow digraph, and
// under-relaxes the viscosity toward mu_eff(R, Hct). Returns a
// non-converged Result (Converged = false) rather than an error when
// MaxIter is exhausted, so callers can inspect the trajectory.
func Solve(n *network.Network, prm Params) (*Result, error) {
	prm = prm.withDefaults()
	hprm := network.HaematocritParams{Inlet: prm.InletHct, Gamma: prm.Gamma}

	mu := make([]float64, len(n.Segs))
	for si, s := range n.Segs {
		mu[si] = prm.Rheology.MuEff(s.Radius, prm.InletHct)
	}
	res := &Result{Mu: mu}
	for it := 1; it <= prm.MaxIter; it++ {
		f, err := network.SolveFlowVisc(n, mu)
		if err != nil {
			return nil, err
		}
		H := network.SplitHaematocrit(n, f, hprm)
		res.Flow, res.Hct, res.Iters = f, H, it
		res.Sparse = f.Sparse
		res.CGIters += f.CGIters
		var worst float64
		for si, s := range n.Segs {
			muNew := prm.Rheology.MuEff(s.Radius, H[si])
			if rel := math.Abs(muNew-mu[si]) / mu[si]; rel > worst {
				worst = rel
			}
			mu[si] += prm.Relax * (muNew - mu[si])
		}
		res.Residual = worst
		if worst <= prm.Tol {
			res.Converged = true
			break
		}
	}
	res.FlowImbalance = res.Flow.MaxImbalance(n)
	res.RBCImbalance = network.RBCFluxImbalance(n, res.Flow, res.Hct)
	res.MeanVelocity = make([]float64, len(n.Segs))
	for si, s := range n.Segs {
		res.MeanVelocity[si] = res.Flow.Q[si] / (math.Pi * s.Radius * s.Radius)
	}
	if prm.Calibration != nil {
		res.CorrectedVelocity = make([]float64, len(n.Segs))
		for si, s := range n.Segs {
			res.CorrectedVelocity[si] = prm.Calibration.FactorFor(s.Radius) * res.MeanVelocity[si]
		}
	}
	return res, nil
}

// ObjectiveNames lists the rankable campaign objectives.
func ObjectiveNames() []string {
	return []string{"pressure-drop", "max-velocity", "outlet-hct-cv"}
}

// ValidObjective reports whether name is a known objective.
func ValidObjective(name string) bool {
	for _, o := range ObjectiveNames() {
		if o == name {
			return true
		}
	}
	return false
}

// EvalObjective scores a surrogate solution for mixed-tier ranking (higher
// is more interesting):
//
//   - "pressure-drop": max − min nodal pressure, the network's driving cost.
//   - "max-velocity": worst |mean velocity| over segments (calibration-
//     corrected when a Calibration was supplied).
//   - "outlet-hct-cv": coefficient of variation of the haematocrit reaching
//     the outflow terminals — heterogeneity of cell delivery, the quantity
//     plasma skimming distorts most.
func EvalObjective(name string, n *network.Network, r *Result) (float64, error) {
	switch name {
	case "pressure-drop":
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range r.Flow.P {
			lo, hi = math.Min(lo, p), math.Max(hi, p)
		}
		return hi - lo, nil
	case "max-velocity":
		v := r.MeanVelocity
		if r.CorrectedVelocity != nil {
			v = r.CorrectedVelocity
		}
		var worst float64
		for _, x := range v {
			worst = math.Max(worst, math.Abs(x))
		}
		return worst, nil
	case "outlet-hct-cv":
		deg := n.Degree()
		var hs []float64
		for si, s := range n.Segs {
			// A segment drains to an outflow terminal when its downstream
			// end (per the signed flow) is a degree-1 node.
			end := s.B
			if r.Flow.Q[si] < 0 {
				end = s.A
			}
			// A degree-1 end's only segment is si itself, so the terminal
			// drains flow exactly when si carries any.
			if deg[end] == 1 && r.Flow.Q[si] != 0 {
				hs = append(hs, r.Hct[si])
			}
		}
		if len(hs) == 0 {
			return 0, nil
		}
		var mean float64
		for _, h := range hs {
			mean += h
		}
		mean /= float64(len(hs))
		if mean == 0 {
			return 0, nil
		}
		var varr float64
		for _, h := range hs {
			varr += (h - mean) * (h - mean)
		}
		return math.Sqrt(varr/float64(len(hs))) / mean, nil
	}
	return 0, fmt.Errorf("surrogate: unknown objective %q (known: %v)", name, ObjectiveNames())
}
