// Package surrogate promotes the reduced-order Poiseuille/Kirchhoff network
// solver to a first-class, calibrated simulation tier.
//
// The tier couples three pieces:
//
//   - Empirical tube rheology: the Fåhræus–Lindqvist effective viscosity
//     mu_eff(R, Hct) in the Pries in-vitro parameterization, replacing the
//     constant viscosity of the plain network solve.
//   - A damped fixed-point outer loop coupling flow ⇄ plasma-skimming
//     haematocrit to a tested tolerance (Solve); each step is one
//     network.SolveFlowVisc, whose CG backend above a node-count threshold
//     keeps million-segment networks in budget.
//   - A calibration harness (Calibrate) that fits per-regime correction
//     factors against matched full boundary-integral solves on small
//     networks and persists them as a versioned, content-addressed
//     Calibration artifact — the QuadPlan pattern applied to physics.
//
// A surrogate solve costs microseconds to milliseconds where a BIE solve
// costs minutes, which is what makes mixed-tier campaigns (sweep on the
// surrogate, promote the interesting points to the BIE tier) and the serve
// fast path possible.
package surrogate

import "math"

// Rheology parameterizes the Fåhræus–Lindqvist effective-viscosity law.
// The zero value is usable: defaults are applied on every evaluation.
type Rheology struct {
	// MuPlasma is the plasma viscosity in solver units; the empirical law
	// returns MuPlasma times the relative apparent viscosity (default 1,
	// matching the BIE tier's dimensionless mu).
	MuPlasma float64
	// MicronsPerUnit converts a geometric length unit to micrometres for
	// the empirical fit, which is parameterized in physical tube diameter.
	// The default 10 places the builders' radius-1 parent vessels at 20 µm —
	// arteriolar scale, where the Fåhræus–Lindqvist effect is strong.
	MicronsPerUnit float64
}

func (rh Rheology) withDefaults() Rheology {
	if rh.MuPlasma == 0 {
		rh.MuPlasma = 1
	}
	if rh.MicronsPerUnit == 0 {
		rh.MicronsPerUnit = 10
	}
	return rh
}

// MuEff returns the effective tube viscosity of blood at discharge
// haematocrit hd flowing through a tube of the given radius (solver units),
// using the Pries et al. in-vitro parameterization of the
// Fåhræus–Lindqvist effect:
//
//	mu_rel = 1 + (mu45 − 1)·((1−hd)^C − 1)/((1−0.45)^C − 1)
//	mu45   = 6·e^(−0.085·D) + 3.2 − 2.44·e^(−0.06·D^0.645)
//	C      = (0.8 + e^(−0.075·D))·(−1 + f) + f,  f = 1/(1 + 1e−11·D^12)
//
// with D the tube diameter in µm. hd = 0 recovers exactly MuPlasma; the
// result grows monotonically with hd. hd is clamped to [0, 0.95] — the fit
// is meaningless beyond packed-cell fractions.
func (rh Rheology) MuEff(radius, hd float64) float64 {
	rh = rh.withDefaults()
	if hd <= 0 {
		return rh.MuPlasma
	}
	if hd > 0.95 {
		hd = 0.95
	}
	d := 2 * radius * rh.MicronsPerUnit
	mu45 := 6*math.Exp(-0.085*d) + 3.2 - 2.44*math.Exp(-0.06*math.Pow(d, 0.645))
	f := 1 / (1 + 1e-11*math.Pow(d, 12))
	c := (0.8+math.Exp(-0.075*d))*(-1+f) + f
	denom := math.Pow(1-0.45, c) - 1
	return rh.MuPlasma * (1 + (mu45-1)*(math.Pow(1-hd, c)-1)/denom)
}
