package rbc

// BendingForce computes the Canham–Helfrich bending force density
// f_b = κ_b (Δ_γ H + 2H(H² − K)) n on the grid (per unit area), using the
// given geometry. Returns component-major grid fields.
func (c *Cell) BendingForce(kappa float64, geo *Geometry) [3][]float64 {
	n := c.Grid.NumPoints()
	lapH := c.SurfaceLaplacian(geo, geo.H)
	var f [3][]float64
	for d := 0; d < 3; d++ {
		f[d] = make([]float64, n)
	}
	for k := 0; k < n; k++ {
		mag := kappa * (lapH[k] + float64(2*geo.H[k]*(float64(geo.H[k]*geo.H[k])-geo.K[k])))
		for d := 0; d < 3; d++ {
			f[d][k] = mag * geo.Normal[d][k]
		}
	}
	return f
}

// LinearizedBendingApply applies the frozen-geometry linearization of the
// bending force to a displacement field dX: f ≈ κ_b Δ_γ(Δ_γ(dX·n)) n — the
// dominant fourth-order term used by the locally-implicit solve.
func (c *Cell) LinearizedBendingApply(kappa float64, geo *Geometry, dX [3][]float64) [3][]float64 {
	n := c.Grid.NumPoints()
	dn := make([]float64, n)
	for k := 0; k < n; k++ {
		dn[k] = float64(dX[0][k]*geo.Normal[0][k]) + float64(dX[1][k]*geo.Normal[1][k]) + float64(dX[2][k]*geo.Normal[2][k])
	}
	lap2 := c.SurfaceLaplacian(geo, c.SurfaceLaplacian(geo, dn))
	var f [3][]float64
	for d := 0; d < 3; d++ {
		f[d] = make([]float64, n)
		for k := 0; k < n; k++ {
			// Δ²(dX·n) enters the bending force with a − sign relative to
			// ΔH's dependence on normal displacement (H gains −½Δ(dX·n)),
			// giving a dissipative implicit term: f = −κ/2 Δ²(dX·n) n · 2.
			f[d][k] = -kappa * lap2[k] * geo.Normal[d][k]
		}
	}
	return f
}
