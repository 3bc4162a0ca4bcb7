package bie

import (
	"math"
	"math/rand"
	"testing"

	"rbcflow/internal/forest"
	"rbcflow/internal/patch"
)

// nearZoneSurface builds a cubed-sphere whose first root is replaced by an
// edge-graded stack of strongly anisotropic panels — the rim-stack regime
// whose near-zone membership the parallel precompute must not silently
// change.
func nearZoneSurface() *Surface {
	sphere := cubeSphere(8, 1, 0)
	var roots []*patch.Patch
	roots = append(roots, sphere.Patches[0].SplitEdgeGraded(patch.EdgeULo, 3)...)
	roots = append(roots, sphere.Patches[1:]...)
	return NewSurface(forest.NewUniform(roots, 0), lightParams())
}

// trueDist approximates the distance from x to patch pp by dense parameter
// sampling — deliberately independent of the Newton ClosestPoint solver
// that nearPatches falls back to.
func trueDist(pp *patch.Patch, x [3]float64) float64 {
	const n = 121
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		u := -1 + 2*float64(i)/(n-1)
		for j := 0; j < n; j++ {
			v := -1 + 2*float64(j)/(n-1)
			if d := dist3(pp.Eval(u, v), x); d < best {
				best = d
			}
		}
	}
	return best
}

// TestFillBBoxes: the cached boxes bound their patches — boxDist is a true
// lower bound on the patch distance (stage-1 rejection can only be safe if
// it is).
func TestFillBBoxes(t *testing.T) {
	s := nearZoneSurface()
	s.bboxOnce.Do(s.fillBBoxes)
	if len(s.bboxLo) != s.F.NumPatches() {
		t.Fatalf("bbox count %d, want %d", len(s.bboxLo), s.F.NumPatches())
	}
	for j, pp := range s.F.Patches {
		for i := 0; i < 40; i++ {
			u := -1 + 2*float64(i%8)/7
			v := -1 + 2*float64(i/8)/4
			p := pp.Eval(u, v)
			if boxDist(p, s.bboxLo[j], s.bboxHi[j]) > 1e-9 {
				t.Fatalf("patch %d: surface point %v outside its bbox", j, p)
			}
		}
	}
	probes := [][3]float64{{2, 0.3, -0.4}, {0, 0, 1.8}, {-1.2, 1.2, 0.1}}
	for _, x := range probes {
		for j, pp := range s.F.Patches {
			if bd, td := boxDist(x, s.bboxLo[j], s.bboxHi[j]), trueDist(pp, x); bd > td+1e-9 {
				t.Fatalf("patch %d: boxDist %g exceeds true distance %g", j, bd, td)
			}
		}
	}
}

// TestNearPatchesThreeStageRejection pins nearPatches against a brute-force
// membership reference on a surface with graded, high-aspect panels: the
// bbox rejection, the own-node early accept, the node-spacing slack
// shortcut, and the Newton fallback must jointly reproduce exact
// near-zone membership. A change in any stage that alters membership —
// which would silently change every precomputed plan — fails here.
func TestNearPatchesThreeStageRejection(t *testing.T) {
	s := nearZoneSurface()
	rng := rand.New(rand.NewSource(11))

	// Probes: every 5th coarse node (on-surface, self-patch excluded from
	// the distance test), plus random near-wall and interior points.
	type probe struct {
		x    [3]float64
		self int
	}
	var probes []probe
	for g := 0; g < s.NumNodes(); g += 5 {
		probes = append(probes, probe{s.Pts[g], s.PatchOf(g)})
	}
	for i := 0; i < 30; i++ {
		r := 0.55 + 0.6*rng.Float64() // straddles the wall at r=1
		th := rng.Float64() * math.Pi
		ph := rng.Float64() * 2 * math.Pi
		probes = append(probes, probe{[3]float64{
			r * math.Sin(th) * math.Cos(ph),
			r * math.Sin(th) * math.Sin(ph),
			r * math.Cos(th),
		}, -1})
	}

	checked, skipped := 0, 0
	for _, pr := range probes {
		got := map[int]bool{}
		for _, j := range s.nearPatches(pr.x, pr.self) {
			got[j] = true
		}
		if pr.self >= 0 && !got[pr.self] {
			t.Fatalf("own patch %d missing from its node's near set", pr.self)
		}
		for j, pp := range s.F.Patches {
			if j == pr.self {
				continue
			}
			dEps := s.P.NearFactor * s.LMax[j]
			td := trueDist(pp, pr.x)
			// The dense reference resolves the boundary to sampling accuracy
			// only; skip probes sitting on the membership threshold.
			if math.Abs(td-dEps) < 0.03*dEps {
				skipped++
				continue
			}
			if want := td <= dEps; got[j] != want {
				t.Fatalf("probe %v patch %d: membership %v, want %v (dist %g, dEps %g)",
					pr.x, j, got[j], want, td, dEps)
			}
			// Stage-3 slack soundness: any patch skipped because every node
			// is beyond dEps + 0.35·LMax must truly be outside the zone.
			nodeDist := math.Inf(1)
			for k := j * s.NQ; k < (j+1)*s.NQ; k++ {
				if d := dist3(s.Pts[k], pr.x); d < nodeDist {
					nodeDist = d
				}
			}
			if nodeDist > dEps+0.35*s.LMax[j] && td <= dEps {
				t.Fatalf("probe %v patch %d: node-spacing slack rejected a true near patch", pr.x, j)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("no memberships checked")
	}
	t.Logf("checked %d (probe, patch) pairs, %d threshold-adjacent skipped", checked, skipped)

	// The stack really is anisotropic: the graded panels must exceed the
	// aspect the near-zone LMax rule exists for.
	uLen := dist3(s.F.Patches[0].Eval(-1, 0), s.F.Patches[0].Eval(1, 0))
	vLen := dist3(s.F.Patches[0].Eval(0, -1), s.F.Patches[0].Eval(0, 1))
	if ar := math.Max(uLen/vLen, vLen/uLen); ar < 4 {
		t.Fatalf("graded stack lost its anisotropy (aspect %.1f); the regression lost its teeth", ar)
	}
}
