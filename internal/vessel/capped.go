// Capped open-channel geometries: a straight tube ("capsule channel") and
// a torus arc at the seed torus's channel parameters, both closed by flat
// terminal disks with edge-graded rims. These are the minimal capped
// geometries of the solver-convergence (CapGrading) suite: every cap/barrel
// rim is a true 90° corner, the configuration that stalled the seed-era
// Nyström scheme (see DESIGN.md and internal/bie/adaptive.go).
package vessel

import (
	"math"

	"rbcflow/internal/bie"
	"rbcflow/internal/patch"
	"rbcflow/internal/quadrature"
)

// ChannelCap describes one flat terminal disk of a capped channel.
type ChannelCap struct {
	Center [3]float64
	AxisIn [3]float64 // unit, pointing into the fluid
	E1, E2 [3]float64 // orthonormal frame spanning the disk plane
	Radius float64
	// Roots lists the indices (into CappedChannel.Roots) of this cap's
	// patches.
	Roots []int
}

// CappedChannel is an open channel: barrel patches plus two graded terminal
// caps, ready for the forest/bie pipeline.
type CappedChannel struct {
	Roots []*patch.Patch
	Caps  [2]ChannelCap
}

// gradedAxialBreakpoints splits [a, b] into panels of target width h with
// levels of rim grading toward both ends (both ends carry caps).
func gradedAxialBreakpoints(a, b, h float64, levels int) []float64 {
	n := int(math.Ceil((b - a) / h))
	if n < 2 {
		n = 2
	}
	return quadrature.GradedSpanBreakpoints(a, b, n, true, true, levels)
}

// appendCap builds one graded cap and records its metadata.
func (cc *CappedChannel) appendCap(idx, order, nv int, ctr, aout, e1, e2 [3]float64, r float64, levels int) {
	roots := GradedCapRoots(order, nv, ctr, aout, e1, e2, r, levels)
	cap := ChannelCap{
		Center: ctr,
		AxisIn: [3]float64{-aout[0], -aout[1], -aout[2]},
		E1:     e1, E2: e2, Radius: r,
	}
	for _, p := range roots {
		cap.Roots = append(cap.Roots, len(cc.Roots))
		cc.Roots = append(cc.Roots, p)
	}
	cc.Caps[idx] = cap
}

// CappedTubeChannel builds a straight open tube (the "capsule channel"):
// barrel of radius r along z from 0 to L, flat caps at both ends. axialLen
// is the target axial patch length in units of r; gradeLevels is the number
// of graded panel levels at every rim (0 = one ungraded panel per band).
func CappedTubeChannel(order, nv int, r, L, axialLen float64, gradeLevels int) *CappedChannel {
	cc := &CappedChannel{}
	zb := gradedAxialBreakpoints(0, L, axialLen*r, gradeLevels)
	for ai := 0; ai+1 < len(zb); ai++ {
		z0, z1 := zb[ai], zb[ai+1]
		for b := 0; b < nv; b++ {
			p0 := 2 * math.Pi * float64(b) / float64(nv)
			p1 := 2 * math.Pi * float64(b+1) / float64(nv)
			cc.Roots = append(cc.Roots, patch.FromFunc(order, func(u, v float64) [3]float64 {
				ph := p0 + (p1-p0)*(u+1)/2
				z := z0 + (z1-z0)*(v+1)/2
				// u→φ, v→z: du×dv = φ̂×ẑ = ρ̂, out of the fluid.
				return [3]float64{r * math.Cos(ph), r * math.Sin(ph), z}
			}))
		}
	}
	e1 := [3]float64{1, 0, 0}
	e2 := [3]float64{0, 1, 0}
	cc.appendCap(0, order, nv, [3]float64{0, 0, 0}, [3]float64{0, 0, -1}, e1, e2, r, gradeLevels)
	cc.appendCap(1, order, nv, [3]float64{0, 0, L}, [3]float64{0, 0, 1}, e1, e2, r, gradeLevels)
	return cc
}

// CappedTorusChannel builds an open torus arc — the seed torus at channel
// parameters (major radius R, tube radius r), cut at angle arc and closed
// by flat caps with gradeLevels of rim grading. nu is the number of base
// patches along the arc per 2π of a full torus (the seed uses 6 at R=3,
// r=1).
func CappedTorusChannel(order, nu, nv int, R, r, arc float64, gradeLevels int) *CappedChannel {
	cc := &CappedChannel{}
	h := 2 * math.Pi / float64(nu) // seed-equivalent angular patch length
	tb := gradedAxialBreakpoints(0, arc, h, gradeLevels)
	for ai := 0; ai+1 < len(tb); ai++ {
		t0, t1 := tb[ai], tb[ai+1]
		for b := 0; b < nv; b++ {
			p0 := 2 * math.Pi * float64(b) / float64(nv)
			p1 := 2 * math.Pi * float64(b+1) / float64(nv)
			cc.Roots = append(cc.Roots, patch.FromFunc(order, func(u, v float64) [3]float64 {
				th := t0 + (t1-t0)*(u+1)/2
				ph := p0 + (p1-p0)*(v+1)/2
				return torusPoint(th, ph, R, r)
			}))
		}
	}
	capAt := func(idx int, th float64, outSign float64) {
		ctr := [3]float64{R * math.Cos(th), R * math.Sin(th), 0}
		tan := [3]float64{-math.Sin(th), math.Cos(th), 0}
		aout := [3]float64{outSign * tan[0], outSign * tan[1], outSign * tan[2]}
		e1 := [3]float64{math.Cos(th), math.Sin(th), 0} // radial: rim = ctr + r(cosφ e1 + sinφ e2)
		e2 := [3]float64{0, 0, 1}
		cc.appendCap(idx, order, nv, ctr, aout, e1, e2, r, gradeLevels)
	}
	capAt(0, 0, -1)
	capAt(1, arc, 1)
	return cc
}

// Inflow builds the boundary condition driving flow Q through the channel:
// a parabolic (Poiseuille) profile on each cap — entering at cap 0, leaving
// at cap 1 — rescaled so each cap's DISCRETE quadrature flux matches ±Q
// exactly (the per-component zero-net-flux solvability condition of the
// interior Dirichlet problem), and no-slip zero on the barrel. s must have
// been built from this channel's roots at level 0 or with uniform
// refinement (patch→root mapping via the forest's RootOf).
func (cc *CappedChannel) Inflow(s *bie.Surface, Q float64) []float64 {
	g := make([]float64, 3*len(s.Pts))
	capRoot := map[int]int{} // root index → cap index
	for ci := range cc.Caps {
		for _, ri := range cc.Caps[ci].Roots {
			capRoot[ri] = ci
		}
	}
	type acc struct {
		target, actual float64
		ks             []int
	}
	accs := [2]acc{}
	accs[0].target = -Q // inflow against the outward normal
	accs[1].target = Q
	for pid := range s.F.Patches {
		ci, ok := capRoot[s.F.RootOf[pid]]
		if !ok {
			continue
		}
		cp := &cc.Caps[ci]
		dir := cp.AxisIn
		if ci == 1 {
			dir = [3]float64{-dir[0], -dir[1], -dir[2]} // leave through cap 1
		}
		for k := pid * s.NQ; k < (pid+1)*s.NQ; k++ {
			x := s.Pts[k]
			dx := [3]float64{x[0] - cp.Center[0], x[1] - cp.Center[1], x[2] - cp.Center[2]}
			ax := patch.DotV(dx, cp.AxisIn)
			rho2 := patch.DotV(dx, dx) - ax*ax
			prof := 1 - rho2/(cp.Radius*cp.Radius)
			if prof < 0 {
				prof = 0
			}
			for d := 0; d < 3; d++ {
				g[3*k+d] = prof * dir[d]
			}
			accs[ci].actual += patch.DotV([3]float64{g[3*k], g[3*k+1], g[3*k+2]}, s.Nrm[k]) * s.W[k]
			accs[ci].ks = append(accs[ci].ks, k)
		}
	}
	for ci := range accs {
		if accs[ci].actual == 0 {
			continue
		}
		scale := accs[ci].target / accs[ci].actual
		for _, k := range accs[ci].ks {
			g[3*k] *= scale
			g[3*k+1] *= scale
			g[3*k+2] *= scale
		}
	}
	return g
}
