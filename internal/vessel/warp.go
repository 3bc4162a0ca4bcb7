// Warped graded bands: the rim-shared barrel ends of tube surfaces whose
// rim is a curve rather than a planar circle. A band interpolates, per
// azimuth, between a rim curve (s = 0) and a straight join station (s = 1),
// with the same panel grading toward the rim seam that GradedCapRoots
// applies toward a cap rim. internal/network uses it to make
// each blended-junction barrel end follow its anisotropic collar curve
// while still sharing the exact rim with the junction hull patches.
package vessel

import (
	"math"

	"rbcflow/internal/patch"
	"rbcflow/internal/quadrature"
)

// GradedWarpBands builds nv azimuthal bands times a stack of levels+1
// panels in the warp coordinate s ∈ [0, 1], graded toward s = 0 (the rim
// seam) by quadrature.GradingRatio. f(s, phi) is the surface map; its s = 0
// isoline must be the exact rim curve so the bands share it with whatever
// surface continues there. Level 0 is a single ungraded panel per band.
//
// The patch parameterization is u→s, v→phi, or the transpose when swapUV is
// set — the caller picks the one whose du×dv points out of the fluid (for a
// tube swept along +t with phi the usual right-handed azimuth, u→s is
// outward when s advances along +t, and the transpose when s runs against
// it). The rim edge of every returned patch is EdgeULo (swapUV false) or
// EdgeVLo (swapUV true).
func GradedWarpBands(order, nv, levels int, swapUV bool, f func(s, phi float64) [3]float64) []*patch.Patch {
	sb := quadrature.GradedBreakpoints(0, 1, levels)
	var roots []*patch.Patch
	for si := 0; si+1 < len(sb); si++ {
		s0, s1 := sb[si], sb[si+1]
		for b := 0; b < nv; b++ {
			p0 := 2 * math.Pi * float64(b) / float64(nv)
			p1 := 2 * math.Pi * float64(b+1) / float64(nv)
			fn := func(u, v float64) [3]float64 {
				a, c := u, v
				if swapUV {
					a, c = v, u
				}
				s := s0 + (s1-s0)*(a+1)/2
				ph := p0 + (p1-p0)*(c+1)/2
				return f(s, ph)
			}
			roots = append(roots, patch.FromFunc(order, fn))
		}
	}
	return roots
}
