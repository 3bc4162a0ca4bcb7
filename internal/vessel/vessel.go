// Package vessel generates the rigid vascular geometries of the paper's
// experiments as forests of polynomial patches — a torus channel loop, a
// trefoil-knot tube standing in for the complex network of Fig. 1/8, and a
// spherical capsule for the sedimentation study (Fig. 7) — plus the RBC
// "filling" algorithm of §5.1 that populates a vessel with nearly-touching
// cells of varied sizes, and volume-fraction accounting (§5.4).
package vessel

import (
	"math"
	"math/rand"

	"rbcflow/internal/bie"
	"rbcflow/internal/forest"
	"rbcflow/internal/patch"
	"rbcflow/internal/quadrature"
	"rbcflow/internal/rbc"
)

// TorusRoots builds a torus of major radius R and minor (tube) radius r as
// nu×nv root patches of the given polynomial order, with outward-of-fluid
// normals for a fluid INSIDE the tube.
func TorusRoots(order, nu, nv int, R, r float64) []*patch.Patch {
	var roots []*patch.Patch
	for a := 0; a < nu; a++ {
		for b := 0; b < nv; b++ {
			a0 := 2 * math.Pi * float64(a) / float64(nu)
			a1 := 2 * math.Pi * float64(a+1) / float64(nu)
			b0 := 2 * math.Pi * float64(b) / float64(nv)
			b1 := 2 * math.Pi * float64(b+1) / float64(nv)
			roots = append(roots, patch.FromFunc(order, func(u, v float64) [3]float64 {
				// u along the major circle, v around the tube.
				th := a0 + (a1-a0)*(u+1)/2
				ph := b0 + (b1-b0)*(v+1)/2
				// Swap orientation so du×dv points out of the fluid (away
				// from the tube centerline).
				return torusPoint(th, ph, R, r)
			}))
		}
	}
	return roots
}

func torusPoint(th, ph, R, r float64) [3]float64 {
	w := R + r*math.Cos(ph)
	return [3]float64{w * math.Cos(th), w * math.Sin(th), r * math.Sin(ph)}
}

// TrefoilRoots sweeps a tube of radius r along a trefoil knot (the complex
// closed vascular channel standing in for the Fig. 1 network geometry).
func TrefoilRoots(order, nu, nv int, scale, r float64) []*patch.Patch {
	center := func(t float64) [3]float64 {
		return [3]float64{
			scale * (math.Sin(t) + 2*math.Sin(2*t)),
			scale * (math.Cos(t) - 2*math.Cos(2*t)),
			scale * (-math.Sin(3 * t)),
		}
	}
	var roots []*patch.Patch
	for a := 0; a < nu; a++ {
		for b := 0; b < nv; b++ {
			a0 := 2 * math.Pi * float64(a) / float64(nu)
			a1 := 2 * math.Pi * float64(a+1) / float64(nu)
			b0 := 2 * math.Pi * float64(b) / float64(nv)
			b1 := 2 * math.Pi * float64(b+1) / float64(nv)
			roots = append(roots, patch.FromFunc(order, func(u, v float64) [3]float64 {
				t := a0 + (a1-a0)*(u+1)/2
				ph := b0 + (b1-b0)*(v+1)/2
				c := center(t)
				h := 1e-4
				cp := center(t + h)
				cm := center(t - h)
				tan := patch.Normalize([3]float64{cp[0] - cm[0], cp[1] - cm[1], cp[2] - cm[2]})
				// Frame: project z-axis out of tangent (stable enough for
				// this knot's moderate torsion at our patch counts).
				up := [3]float64{0, 0, 1}
				n1 := patch.Normalize(orthogonalize(up, tan))
				n2 := patch.Cross(tan, n1)
				// Tube angle runs clockwise so du×dv points out of the
				// fluid (into the tube wall), matching the torus convention:
				// InsideIndicator = +1 in the channel, Volume > 0.
				return [3]float64{
					c[0] + r*(math.Cos(ph)*n1[0]-math.Sin(ph)*n2[0]),
					c[1] + r*(math.Cos(ph)*n1[1]-math.Sin(ph)*n2[1]),
					c[2] + r*(math.Cos(ph)*n1[2]-math.Sin(ph)*n2[2]),
				}
			}))
		}
	}
	return roots
}

func orthogonalize(v, t [3]float64) [3]float64 {
	d := patch.DotV(v, t)
	out := [3]float64{v[0] - d*t[0], v[1] - d*t[1], v[2] - d*t[2]}
	if patch.Norm(out) < 1e-6 {
		out = [3]float64{1, 0, 0}
		d = patch.DotV(out, t)
		out = [3]float64{out[0] - d*t[0], out[1] - d*t[1], out[2] - d*t[2]}
	}
	return out
}

// CapsuleRoots builds a spherical capsule (cubed sphere scaled by the axis
// factors), the sedimentation container of Fig. 7.
func CapsuleRoots(order int, radius float64, axes [3]float64) []*patch.Patch {
	mk := func(fix int, sign float64) *patch.Patch {
		return patch.FromFunc(order, func(u, v float64) [3]float64 {
			var p [3]float64
			p[fix] = sign
			p[(fix+1)%3] = u * sign
			p[(fix+2)%3] = v
			n := patch.Norm(p)
			return [3]float64{
				radius * axes[0] * p[0] / n,
				radius * axes[1] * p[1] / n,
				radius * axes[2] * p[2] / n,
			}
		})
	}
	var roots []*patch.Patch
	for fix := 0; fix < 3; fix++ {
		roots = append(roots, mk(fix, 1), mk(fix, -1))
	}
	return roots
}

// capCenterFrac is the radius fraction covered by the central squircle
// patch of a graded cap; the annulus panels between it and the rim carry
// the grading.
const capCenterFrac = 0.5

// orientTo builds f oriented so the patch normal aligns with the constant
// outward direction ref (patch.FromFuncOriented with a constant reference).
func orientTo(order int, f func(u, v float64) [3]float64, ref [3]float64) *patch.Patch {
	p, _ := patch.FromFuncOriented(order, f, func([3]float64) [3]float64 { return ref })
	return p
}

// GradedCapRoots builds the patches of one flat terminal-cap disk of
// radius r centered at ctr in the (e1, e2) plane, oriented so normals
// point along aout (out of the fluid): a central "squircle" patch (the
// square→disk map) covering capCenterFrac of the radius plus nv azimuthal
// sectors of levels+1 annulus panels whose radial widths shrink by
// quadrature.GradingRatio toward the rim. The rim circle is parameterized
// identically to a swept barrel's end ring (cos/sin in the same frame), so
// cap and barrel share the rim curve exactly at equal patch order.
func GradedCapRoots(order, nv int, ctr, aout, e1, e2 [3]float64, r float64, levels int) []*patch.Patch {
	at := func(rho, phi float64) [3]float64 {
		x, y := rho*r*math.Cos(phi), rho*r*math.Sin(phi)
		return [3]float64{
			ctr[0] + x*e1[0] + y*e2[0],
			ctr[1] + x*e1[1] + y*e2[1],
			ctr[2] + x*e1[2] + y*e2[2],
		}
	}
	squircle := func(u, v float64) [3]float64 {
		x := capCenterFrac * r * u * math.Sqrt(1-v*v/2)
		y := capCenterFrac * r * v * math.Sqrt(1-u*u/2)
		return [3]float64{
			ctr[0] + x*e1[0] + y*e2[0],
			ctr[1] + x*e1[1] + y*e2[1],
			ctr[2] + x*e1[2] + y*e2[2],
		}
	}
	roots := []*patch.Patch{orientTo(order, squircle, aout)}
	// Radial ladder from the center patch to the rim, graded toward rho = 1:
	// the mirror of GradedBreakpoints' toward-start ladder.
	b := quadrature.GradedBreakpoints(0, 1-capCenterFrac, levels)
	rb := make([]float64, len(b))
	for i, v := range b {
		rb[len(b)-1-i] = 1 - v
	}
	for ri := 0; ri+1 < len(rb); ri++ {
		r0, r1 := rb[ri], rb[ri+1]
		for bq := 0; bq < nv; bq++ {
			p0 := 2 * math.Pi * float64(bq) / float64(nv)
			p1 := 2 * math.Pi * float64(bq+1) / float64(nv)
			f := func(u, v float64) [3]float64 {
				return at(r0+(r1-r0)*(u+1)/2, p0+(p1-p0)*(v+1)/2)
			}
			roots = append(roots, orientTo(order, f, aout))
		}
	}
	return roots
}

// FillParams configures the RBC filling algorithm of §5.1.
type FillParams struct {
	// SphOrder of the generated cells.
	SphOrder int
	// Spacing h of the candidate lattice.
	Spacing float64
	// Radius of the cells (the paper grows cells from r0 to up to 2r0; here
	// radii are jittered in [0.85, 1.15]·Radius).
	Radius float64
	// WallMargin keeps cell centers at least this far from the wall (tested
	// with the inside indicator at center ± Radius probes).
	WallMargin float64
	// MaxCells caps the cell count (0 = no cap).
	MaxCells int
	// Seed for jitter and orientations.
	Seed int64
	// SDF, when set, replaces the Laplace double-layer inside test with a
	// signed-distance bound to the wall (negative inside the fluid,
	// 1-Lipschitz): a center is accepted when SDF(ctr) clears the cell's
	// jittered radius plus WallMargin, certifying a clearance ball around
	// the whole cell. Network geometries supply their field here
	// (Geometry.SDF) so filling stays correct near junctions, where the
	// double-layer indicator probe pattern is both slower and overly
	// conservative.
	SDF func(x [3]float64) float64
}

// Fill places biconcave cells of jittered size and random orientation on a
// lattice inside the vessel, keeping them clear of the wall and of each
// other (the paper's growth loop is replaced by conservative spacing; see
// DESIGN.md).
func Fill(s *bie.Surface, prm FillParams) []*rbc.Cell {
	rng := rand.New(rand.NewSource(prm.Seed))
	lo := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for _, p := range s.Pts {
		for d := 0; d < 3; d++ {
			lo[d] = math.Min(lo[d], p[d])
			hi[d] = math.Max(hi[d], p[d])
		}
	}
	var cells []*rbc.Cell
	probe := prm.Radius + prm.WallMargin
	for x := lo[0] + prm.Spacing/2; x < hi[0]; x += prm.Spacing {
		for y := lo[1] + prm.Spacing/2; y < hi[1]; y += prm.Spacing {
			for z := lo[2] + prm.Spacing/2; z < hi[2]; z += prm.Spacing {
				if prm.MaxCells > 0 && len(cells) >= prm.MaxCells {
					return cells
				}
				ctr := [3]float64{x, y, z}
				// The SDF path draws the size jitter before the wall test so
				// the certified clearance covers the ACTUAL cell radius (up
				// to 1.15·Radius); the indicator path keeps the legacy draw
				// order to preserve its RNG stream.
				var r float64
				if prm.SDF != nil {
					r = prm.Radius * (0.85 + 0.3*rng.Float64())
					if prm.SDF(ctr) > -(r + prm.WallMargin) {
						continue
					}
				} else {
					if !insideWithMargin(s, ctr, probe) {
						continue
					}
					r = prm.Radius * (0.85 + 0.3*rng.Float64())
				}
				rot := rbc.RandomRotation(rng)
				cells = append(cells, rbc.NewBiconcaveCell(prm.SphOrder, r, ctr, &rot))
			}
		}
	}
	return cells
}

func insideWithMargin(s *bie.Surface, ctr [3]float64, margin float64) bool {
	if s.InsideIndicator(ctr) < 0.95 {
		return false
	}
	for d := 0; d < 3; d++ {
		for _, sgn := range []float64{-1, 1} {
			p := ctr
			p[d] += sgn * margin
			if s.InsideIndicator(p) < 0.95 {
				return false
			}
		}
	}
	return true
}

// VolumeFraction returns total cell volume / vessel volume (§5.4).
func VolumeFraction(s *bie.Surface, cells []*rbc.Cell) float64 {
	var cv float64
	for _, c := range cells {
		cv += c.Volume()
	}
	return cv / s.EnclosedVolume()
}

// WallInflow builds a velocity boundary condition g on the surface nodes:
// a tangential "conveyor" profile in the angular window [th0, th1] of a
// torus-like channel, driving flow around the loop with zero net flux
// (g·n = 0 everywhere). Returns g as 3 values per coarse node.
func WallInflow(s *bie.Surface, th0, th1, speed float64) []float64 {
	g := make([]float64, 3*len(s.Pts))
	for k, x := range s.Pts {
		th := math.Atan2(x[1], x[0])
		if th < 0 {
			th += 2 * math.Pi
		}
		if th < th0 || th > th1 {
			continue
		}
		// Smooth window.
		wnd := math.Sin(math.Pi * (th - th0) / (th1 - th0))
		// Channel direction: azimuthal unit vector; remove normal component
		// to stay tangential.
		dir := [3]float64{-x[1], x[0], 0}
		dir = patch.Normalize(dir)
		n := s.Nrm[k]
		dn := patch.DotV(dir, n)
		dir = [3]float64{dir[0] - dn*n[0], dir[1] - dn*n[1], dir[2] - dn*n[2]}
		dir = patch.Normalize(dir)
		for d := 0; d < 3; d++ {
			g[3*k+d] = speed * wnd * wnd * dir[d]
		}
	}
	return g
}

// Forest is a convenience wrapper building a refined forest from roots.
func Forest(roots []*patch.Patch, level int) *forest.Forest {
	return forest.NewUniform(roots, level)
}
