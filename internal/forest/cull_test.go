package forest_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rbcflow/internal/bie"
	"rbcflow/internal/forest"
	"rbcflow/internal/par"
	"rbcflow/internal/patch"
	"rbcflow/internal/scenario"
)

// cullGeometries are the registered walls the culled search is pinned on.
var cullGeometries = []struct {
	name     string
	scenario string
	params   scenario.Params
}{
	{"torus L0", "torus", scenario.Params{}},
	{"torus L1", "torus", scenario.Params{Level: 1}},
	{"capped-torus", "capped-torus", scenario.Params{}},
	{"trefoil", "trefoil", scenario.Params{}},
	{"capsule", "capsule", scenario.Params{}},
	{"network-y", "network-y", scenario.Params{}},
	{"network-tree depth 2", "network-tree", scenario.Params{Depth: 2}},
}

func cullSurface(t *testing.T, name string, p scenario.Params) *bie.Surface {
	t.Helper()
	p.Defaults()
	g, err := scenario.MustGet(name).BuildGeometry(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return g.Surf
}

// nearZone is the step's d_ε: the widest near zone of any patch.
func nearZone(s *bie.Surface) float64 {
	var dEps float64
	for _, lm := range s.LMax {
		dEps = math.Max(dEps, s.P.NearFactor*lm)
	}
	return dEps
}

// cullQueries draws n seeded points around the wall: half within 0.5·dEps of
// it and half up to 3·dEps away, on both sides; every 16th sits exactly on a
// patch corner and every 16th (offset by 8) exactly on a patch edge, where
// neighbouring patches tie.
func cullQueries(f *forest.Forest, dEps float64, n int, seed int64) [][3]float64 {
	rng := rand.New(rand.NewSource(seed))
	edge := func() float64 { return float64(2*rng.Intn(2) - 1) }
	out := make([][3]float64, n)
	for i := range out {
		pp := f.Patches[rng.Intn(len(f.Patches))]
		u, v := 2*rng.Float64()-1, 2*rng.Float64()-1
		reach := 0.5 * dEps
		if i%2 == 1 {
			reach = 3 * dEps
		}
		off := (2*rng.Float64() - 1) * reach
		switch i % 16 {
		case 0:
			u, v, off = edge(), edge(), 0
		case 8:
			u, off = edge(), 0
		}
		x, n := pp.Eval(u, v), pp.Normal(u, v)
		out[i] = [3]float64{x[0] + off*n[0], x[1] + off*n[1], x[2] + off*n[2]}
	}
	return out
}

// exhaustiveClosest is the search as it was before the cull: a Newton solve
// on every candidate the hash grid returns, the first smallest distance
// winning.
func exhaustiveClosest(c *par.Comm, f *forest.Forest, pts [][3]float64, dEps float64) []forest.Closest {
	cand := f.ClosestCandidates(c, pts, dEps)
	out := make([]forest.Closest, len(pts))
	for i := range pts {
		out[i] = forest.Closest{PatchID: -1, Dist: math.Inf(1)}
		for _, pid := range cand[i] {
			u, v, y, dist := f.Patches[pid].ClosestPoint(pts[i])
			if dist < out[i].Dist {
				out[i] = forest.Closest{PatchID: int(pid), U: u, V: v, Y: y, Dist: dist}
			}
		}
		if out[i].Dist > dEps {
			out[i].PatchID = -1
		}
	}
	return out
}

func cullPoints() int {
	if testing.Short() {
		return 1000
	}
	return 10000
}

// TestCulledClosestPointsMatchExhaustive: searching only the candidates whose
// enclosure box can beat the best distance returns, field for field, the
// Closest of the exhaustive loop — winners, ties on shared edges and corners,
// and far points alike.
func TestCulledClosestPointsMatchExhaustive(t *testing.T) {
	for gi, g := range cullGeometries {
		s := cullSurface(t, g.scenario, g.params)
		dEps := nearZone(s)
		pts := cullQueries(s.F, dEps, cullPoints(), int64(100+gi))
		par.Run(1, par.SKX(), func(c *par.Comm) {
			got := s.F.ClosestPoints(c, pts, dEps)
			want := exhaustiveClosest(c, s.F, pts, dEps)
			near, far := 0, 0
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: point %d %v: culled %+v, exhaustive %+v", g.name, i, pts[i], got[i], want[i])
				}
				if want[i].PatchID >= 0 {
					near++
				} else {
					far++
				}
			}
			if near == 0 || far == 0 {
				t.Fatalf("%s: %d near and %d far points: want both", g.name, near, far)
			}
		})
	}
}

// TestEnclosureContainsPatch: the enclosure box holds a 65² resample of
// every patch (the nodal BBox does not: a polynomial overshoots its nodes).
func TestEnclosureContainsPatch(t *testing.T) {
	ts := make([]float64, 65)
	for i := range ts {
		ts[i] = -1 + 2*float64(i)/64
	}
	pos := make([][3]float64, len(ts)*len(ts))
	for _, g := range cullGeometries {
		s := cullSurface(t, g.scenario, g.params)
		for pid, pp := range s.F.Patches {
			lo, hi := pp.Enclosure()
			lines := patch.TabulateLines(pp.Q, ts, make([]float64, (pp.Q+1)*len(ts)))
			pp.TensorEval(lines, lines, pos)
			for _, x := range pos {
				for d := 0; d < 3; d++ {
					if x[d] < lo[d] || x[d] > hi[d] {
						t.Fatalf("%s: patch %d leaves its enclosure: %v outside [%v, %v]", g.name, pid, x, lo, hi)
					}
				}
			}
		}
	}
}

// TestCulledClosestPointsAcrossCoresAndRanks: every point's result is the
// same bits on one core and on four, and with the points spread over four
// ranks. A far point's leftover fields are whichever candidate its hash cell
// offered, and the cell size is a sum over patches whose rounding follows the
// rank count — so across rank counts a far point is compared as far, a near
// point (whose winner is in every grid's candidate list) field for field.
func TestCulledClosestPointsAcrossCoresAndRanks(t *testing.T) {
	s := cullSurface(t, "network-y", scenario.Params{})
	dEps := nearZone(s)
	pts := cullQueries(s.F, dEps, 2000, 7)
	runAt := func(procs, ranks int) []forest.Closest {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out := make([]forest.Closest, len(pts))
		par.Run(ranks, par.SKX(), func(c *par.Comm) {
			lo, hi := par.BlockRange(len(pts), c.Size(), c.Rank())
			copy(out[lo:hi], s.F.ClosestPoints(c, pts[lo:hi], dEps))
		})
		return out
	}
	one := runAt(1, 1)
	for _, tc := range []struct{ procs, ranks int }{{4, 1}, {4, 4}} {
		got := runAt(tc.procs, tc.ranks)
		for i := range one {
			if tc.ranks > 1 && one[i].PatchID < 0 && got[i].PatchID < 0 {
				continue
			}
			if got[i] != one[i] {
				t.Fatalf("%d cores, %d ranks: point %d: %+v vs %+v", tc.procs, tc.ranks, i, got[i], one[i])
			}
		}
	}
}
