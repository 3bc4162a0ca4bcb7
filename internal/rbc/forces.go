package rbc

// BendingForce computes the Canham–Helfrich bending force density
// f_b = κ_b (Δ_γ H + 2H(H² − K)) n on the grid (per unit area), using the
// given geometry. Returns component-major grid fields.
func (c *Cell) BendingForce(kappa float64, geo *Geometry) [3][]float64 {
	n := c.Grid.NumPoints()
	slab := make([]float64, 3*n)
	f := [3][]float64{slab[:n:n], slab[n : 2*n : 2*n], slab[2*n:]}
	c.bendingForceInto(f, kappa, geo, NewWorkspace(c.Grid))
	return f
}

// bendingForceInto is BendingForce writing into f with scratch ws.
func (c *Cell) bendingForceInto(f [3][]float64, kappa float64, geo *Geometry, ws *Workspace) {
	lapH := ws.field(fieldLap)
	c.SurfaceLaplacianInto(lapH, geo, geo.H, ws)
	for k := range lapH {
		mag := kappa * (lapH[k] + float64(2*geo.H[k]*(float64(geo.H[k]*geo.H[k])-geo.K[k])))
		for d := 0; d < 3; d++ {
			f[d][k] = mag * geo.Normal[d][k]
		}
	}
}

// LinearizedBendingApply writes into f the frozen-geometry linearization of
// the bending force applied to a displacement field dX: f ≈ κ_b Δ_γ(Δ_γ(dX·n)) n
// — the dominant fourth-order term used by the locally-implicit solve. ws
// is its scratch; it allocates nothing.
func (c *Cell) LinearizedBendingApply(f [3][]float64, kappa float64, geo *Geometry, dX [3][]float64, ws *Workspace) {
	dn, lap2 := ws.field(fieldDn), ws.field(fieldLap)
	for k := range dn {
		dn[k] = float64(dX[0][k]*geo.Normal[0][k]) + float64(dX[1][k]*geo.Normal[1][k]) + float64(dX[2][k]*geo.Normal[2][k])
	}
	c.SurfaceLaplacianInto(dn, geo, dn, ws)
	c.SurfaceLaplacianInto(lap2, geo, dn, ws)
	for d := 0; d < 3; d++ {
		for k := range lap2 {
			// Δ²(dX·n) enters the bending force with a − sign relative to
			// ΔH's dependence on normal displacement (H gains −½Δ(dX·n)),
			// giving a dissipative implicit term: f = −κ/2 Δ²(dX·n) n · 2.
			f[d][k] = -kappa * lap2[k] * geo.Normal[d][k]
		}
	}
}
