package bie

import (
	"math"
	"testing"

	"rbcflow/internal/fmm"
	"rbcflow/internal/forest"
	"rbcflow/internal/par"
	"rbcflow/internal/patch"
)

// The correction blocks store six planes because the nine-component block is
// symmetric per source node. ref9 is that nine-component block as the
// operator computed it before (format version 1): the same recursion and the
// same two loops, all nine entries, a row-major 3 × 3·NQ matrix acting on the
// patch's interleaved density. It is the reference the six-plane storage is
// held against — for the symmetry it rests on, and for its values.
type ref9 struct{ ac *adaptiveCtx }

// block is −(coarse direct) + (adaptive quadrature) of patch j at node g.
func (r ref9) block(s *Surface, g, j int) []float64 {
	nq := s.NQ
	m := make([]float64, 9*nq)
	for mm := 0; mm < nq; mm++ {
		idx := j*nq + mm
		r.addDL(m, 3*nq, mm, s.Pts[g], s.Pts[idx], s.Nrm[idx], -s.W[idx])
	}
	r.visit(m, s.F.Patches[j], s.Pts[g], 0, 0, 0, 0)
	return m
}

func (ref9) addDL(m []float64, stride, mm int, x, y, n [3]float64, w float64) {
	rx, ry, rz := x[0]-y[0], x[1]-y[1], x[2]-y[2]
	r2 := rx*rx + ry*ry + rz*rz
	if r2 == 0 {
		return
	}
	inv := 1 / math.Sqrt(r2)
	inv5 := inv * inv * inv * inv * inv
	c := -3 / (4 * math.Pi) * inv5 * (rx*n[0] + ry*n[1] + rz*n[2]) * w
	rr := [3]float64{rx, ry, rz}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			m[a*stride+3*mm+b] += c * rr[a] * rr[b]
		}
	}
}

// visit is adaptiveCtx.visit's acceptance rule with the nine-component leaf.
func (r ref9) visit(m []float64, pp *patch.Patch, x [3]float64, du, iu, dv, iv uint64) {
	ac := r.ac
	rg := ac.getRect(pp, du, iu, dv, iv)
	dmin := math.Inf(1)
	for s := range rg.samples {
		dmin = math.Min(dmin, dist3(rg.samples[s], x))
	}
	alpha := math.Min(adaptAlpha*(1+adaptAlphaGrow*float64(max(du, dv))), adaptAlphaMax)
	if rg.diam > alpha*dmin {
		splitU := du < adaptMaxDepth && rg.uLen >= rg.vLen/adaptAspect
		splitV := dv < adaptMaxDepth && rg.vLen >= rg.uLen/adaptAspect
		if splitU && splitV {
			if rg.uLen > adaptAspect*rg.vLen {
				splitV = false
			} else if rg.vLen > adaptAspect*rg.uLen {
				splitU = false
			}
		}
		switch {
		case splitU && splitV:
			for k := uint64(0); k < 4; k++ {
				r.visit(m, pp, x, du+1, 2*iu+k/2, dv+1, 2*iv+k%2)
			}
			return
		case splitU:
			r.visit(m, pp, x, du+1, 2*iu, dv, iv)
			r.visit(m, pp, x, du+1, 2*iu+1, dv, iv)
			return
		case splitV:
			r.visit(m, pp, x, du, iu, dv+1, 2*iv)
			r.visit(m, pp, x, du, iu, dv+1, 2*iv+1)
			return
		}
		if dmin <= rg.diam/2 {
			return
		}
	}
	if !rg.quad {
		if rg.q == nil {
			ac.allocQuad(rg)
		}
		ac.fillQuad(rg, pp, du, iu, dv, iv)
	}
	r.integrate(m, rg, x)
}

func (r ref9) integrate(m []float64, rg *rectGeom, x [3]float64) {
	qc, qi := r.ac.qc, r.ac.qi
	m1 := make([]float64, 9*qc*qi)
	n := qi * qi
	for i := 0; i < qi; i++ {
		for j := 0; j < qi; j++ {
			k := i*qi + j
			pos := [3]float64{rg.q[k], rg.q[n+k], rg.q[2*n+k]}
			wcr := [3]float64{rg.q[3*n+k], rg.q[4*n+k], rg.q[5*n+k]}
			rx, ry, rz := x[0]-pos[0], x[1]-pos[1], x[2]-pos[2]
			r2 := rx*rx + ry*ry + rz*rz
			if r2 == 0 {
				continue
			}
			inv := 1 / math.Sqrt(r2)
			inv5 := inv * inv * inv * inv * inv
			c := -3 / (4 * math.Pi) * inv5 * (rx*wcr[0] + ry*wcr[1] + rz*wcr[2])
			rr := [3]float64{rx, ry, rz}
			for a := 0; a < 3; a++ {
				for b := 0; b < 3; b++ {
					k2 := c * rr[a] * rr[b]
					for jc := 0; jc < qc; jc++ {
						m1[i*9*qc+(a*3+b)*qc+jc] += k2 * rg.cv[j*qc+jc]
					}
				}
			}
		}
	}
	stride := 3 * qc * qc
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			for jc := 0; jc < qc; jc++ {
				for ic := 0; ic < qc; ic++ {
					var acc float64
					for i := 0; i < qi; i++ {
						acc += m1[i*9*qc+(a*3+b)*qc+jc] * rg.cu[i*qc+ic]
					}
					m[a*stride+3*(ic*qc+jc)+b] += acc
				}
			}
		}
	}
}

// cappedTubeRim is one corner of a capped tube: a quarter of the barrel
// (radius 1) and of the flat end cap at z = 0, each split into a stack of
// panels thinning dyadically toward the rim they share. Patches 0–3 are the
// barrel stack and 4–7 the cap stack, thinnest (rim) panel first in both.
func cappedTubeRim() *Surface {
	barrel := patch.FromFunc(8, func(u, v float64) [3]float64 {
		th := (v + 1) * math.Pi / 4
		return [3]float64{math.Cos(th), math.Sin(th), u + 1}
	})
	capP := patch.FromFunc(8, func(u, v float64) [3]float64 {
		th, rho := (v+1)*math.Pi/4, 1-0.35*(u+1)
		return [3]float64{rho * math.Cos(th), rho * math.Sin(th), 0}
	})
	roots := append(barrel.SplitEdgeGraded(patch.EdgeULo, 3, 0.5), capP.SplitEdgeGraded(patch.EdgeULo, 3, 0.5)...)
	return NewSurface(forest.NewUniform(roots, 0), lightParams())
}

// planeOf maps (a, b) to the stored plane of a symmetric block.
var planeOf = [3][3]int{{0, 1, 2}, {1, 3, 4}, {2, 4, 5}}

// TestSymmetricBlockMatchesNineComponents: the nine-component block is
// symmetric per source node to rounding — the property the storage rests on —
// and the six stored planes are its upper triangle, for a target on the
// source patch (the weakly singular case), a target on the panel sharing an
// edge with it, and a target across the rim from a rim-stack panel.
func TestSymmetricBlockMatchesNineComponents(t *testing.T) {
	s := cappedTubeRim()
	nq := s.NQ
	g := 0*nq + 2 // a node of the thinnest barrel panel, near its rim edge
	for _, tc := range []struct {
		name string
		j    int
	}{{"on-patch", 0}, {"edge-adjacent", 1}, {"rim-stack panel", 4}} {
		var got []float64
		for _, cb := range buildPartialPlan(s, g, g+1, 1).blocks(g) {
			if cb.Pid == tc.j {
				got = cb.M
			}
		}
		if len(got) != symPlanes*nq {
			t.Fatalf("%s: node %d has no %d-value block of patch %d", tc.name, g, symPlanes*nq, tc.j)
		}
		want := ref9{newAdaptiveCtx(s.P.QuadNodes)}.block(s, g, tc.j)
		var scale float64
		for _, v := range want {
			scale = math.Max(scale, math.Abs(v))
		}
		for m := 0; m < nq; m++ {
			for a := 0; a < 3; a++ {
				for b := 0; b < 3; b++ {
					ab, ba := want[a*3*nq+3*m+b], want[b*3*nq+3*m+a]
					if d := math.Abs(ab - ba); d > 1e-14*scale {
						t.Fatalf("%s: node %d: |M_%d%d − M_%d%d| = %.3g·max|M|", tc.name, m, a, b, b, a, d/scale)
					}
					if d := math.Abs(got[planeOf[a][b]*nq+m] - ab); d > 1e-13*scale {
						t.Fatalf("%s: node %d entry (%d,%d): stored plane differs by %.3g·max|M|", tc.name, m, a, b, d/scale)
					}
				}
			}
		}
	}
}

// denseApply is (½I + D + N)ϕ summed the slow way: the coarse double layer
// over every node, every near patch's nine-component correction block
// against its density, the jump and the null-space term.
func denseApply(s *Surface, phi []float64) []float64 {
	nq := s.NQ
	var flux float64
	for g, n := range s.Nrm {
		flux += (n[0]*phi[3*g] + n[1]*phi[3*g+1] + n[2]*phi[3*g+2]) * s.W[g]
	}
	ref := ref9{newAdaptiveCtx(s.P.QuadNodes)}
	out := make([]float64, len(phi))
	for g, x := range s.Pts {
		u := out[3*g : 3*g+3]
		for k, y := range s.Pts {
			addDLBlockVec(u, x, y, s.Nrm[k], phi[3*k:3*k+3], s.W[k])
		}
		for _, j := range s.nearPatches(x, s.PatchOf(g)) {
			m := ref.block(s, g, j)
			for a := 0; a < 3; a++ {
				for i, v := range phi[3*j*nq : 3*(j+1)*nq] {
					u[a] += m[a*3*nq+i] * v
				}
			}
		}
		for a := 0; a < 3; a++ {
			u[a] += 0.5*phi[3*g+a] + s.Nrm[g][a]*flux
		}
	}
	return out
}

// TestApplyMatchesDenseReference: Apply on the six-plane plan is the dense
// double sum over nine-component blocks, on the level-0 torus and the
// capsule, with the rows the same at 1, 2 and 4 ranks.
func TestApplyMatchesDenseReference(t *testing.T) {
	if testing.Short() {
		t.Skip("assembles every nine-component block of two surfaces; run without -short")
	}
	for _, tc := range []struct {
		name string
		make func() *Surface
	}{{"torus", torusSurface}, {"capsule", capsuleSurface}} {
		s := tc.make()
		phi := randomDensity(s.NumUnknowns(), 51)
		want := denseApply(s, phi)
		plan := BuildQuadPlan(s, 2)
		for _, ranks := range []int{1, 2, 4} {
			var rows []float64
			par.Run(ranks, par.SKX(), func(c *par.Comm) {
				sv := NewWallOperator(c, s, WithPlan(plan))
				all, _ := par.AllgathervFlat(c, sv.Apply(c, phi[3*sv.nodeLo:3*sv.nodeHi]))
				if c.Rank() == 0 {
					rows = all
				}
			})
			if d := fmm.RelativeError(rows, want); d > 1e-12 {
				t.Errorf("%s, %d ranks: Apply differs from the dense reference by %.3g", tc.name, ranks, d)
			}
		}
	}
}
