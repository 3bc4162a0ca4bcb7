package forest

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rbcflow/internal/morton"
	"rbcflow/internal/par"
	"rbcflow/internal/patch"
)

// cubeSphereRoots builds the 6 root patches of a cubed sphere of radius r.
func cubeSphereRoots(q int, r float64) []*patch.Patch {
	faces := [][2][3]float64{
		// {axis fixed at +-1}, {u axis}, {v axis} per face via basis vectors.
	}
	_ = faces
	mk := func(fix int, sign float64) *patch.Patch {
		return patch.FromFunc(q, func(u, v float64) [3]float64 {
			var p [3]float64
			p[fix] = sign
			p[(fix+1)%3] = u * sign // orientation flip keeps normals outward
			p[(fix+2)%3] = v
			n := patch.Norm(p)
			return [3]float64{r * p[0] / n, r * p[1] / n, r * p[2] / n}
		})
	}
	var roots []*patch.Patch
	for fix := 0; fix < 3; fix++ {
		roots = append(roots, mk(fix, 1), mk(fix, -1))
	}
	return roots
}

func TestNewUniformCounts(t *testing.T) {
	roots := cubeSphereRoots(6, 1)
	for level := 0; level <= 2; level++ {
		f := NewUniform(roots, level)
		want := 6 * pow4(level)
		if f.NumPatches() != want {
			t.Fatalf("level %d: %d patches, want %d", level, f.NumPatches(), want)
		}
	}
}

func pow4(l int) int {
	n := 1
	for i := 0; i < l; i++ {
		n *= 4
	}
	return n
}

func TestRefineOncePreservesArea(t *testing.T) {
	roots := cubeSphereRoots(8, 1)
	f0 := NewUniform(roots, 0)
	f1 := f0.RefineOnce()
	if f1.Level != 1 || f1.NumPatches() != 24 {
		t.Fatalf("refine level/count: %d/%d", f1.Level, f1.NumPatches())
	}
	a0, a1 := f0.TotalArea(), f1.TotalArea()
	// Area quadrature integrates the non-polynomial |P_u × P_v|, so levels
	// agree only to quadrature accuracy.
	if math.Abs(a0-a1) > 1e-4*a0 {
		t.Fatalf("area changed on refinement: %v vs %v", a0, a1)
	}
	// Sphere area check (approximate due to patch quadrature of the exact
	// sphere geometry): within 1%.
	want := 4 * math.Pi
	if math.Abs(a1-want) > 0.01*want {
		t.Fatalf("sphere area %v want %v", a1, want)
	}
}

func TestRootOfBookkeeping(t *testing.T) {
	roots := cubeSphereRoots(6, 1)
	f := NewUniform(roots, 2)
	counts := map[int]int{}
	for _, r := range f.RootOf {
		counts[r]++
	}
	for ri := 0; ri < 6; ri++ {
		if counts[ri] != 16 {
			t.Fatalf("root %d has %d leaves, want 16", ri, counts[ri])
		}
	}
}

func TestOwnerRangePartition(t *testing.T) {
	f := NewUniform(cubeSphereRoots(6, 1), 1)
	total := 0
	for r := 0; r < 5; r++ {
		lo, hi := f.OwnerRange(5, r)
		total += hi - lo
	}
	if total != f.NumPatches() {
		t.Fatalf("partition covers %d of %d", total, f.NumPatches())
	}
}

func TestClosestPointsOnSphere(t *testing.T) {
	f := NewUniform(cubeSphereRoots(8, 1), 1)
	// Query points at radius 1.05: closest point should be the radial
	// projection at distance 0.05; dEps = 0.2 keeps them in the near zone.
	queries := [][3]float64{
		{1.05, 0, 0}, {0, 1.05, 0}, {0, 0, -1.05},
		{0.61, 0.61, 0.61}, // radius ~1.056
	}
	for _, p := range []int{1, 3} {
		par.Run(p, par.SKX(), func(c *par.Comm) {
			lo, hi := par.BlockRange(len(queries), p, c.Rank())
			res := f.ClosestPoints(c, queries[lo:hi], 0.2)
			for i, r := range res {
				q := queries[lo+i]
				wantDist := patch.Norm(q) - 1
				if r.PatchID < 0 {
					t.Errorf("p=%d query %v: no patch found", p, q)
					continue
				}
				if math.Abs(r.Dist-wantDist) > 1e-5 {
					t.Errorf("p=%d query %v: dist %v want %v", p, q, r.Dist, wantDist)
				}
				// Closest point should be radial projection.
				proj := patch.Normalize(q)
				if d := patch.Norm([3]float64{r.Y[0] - proj[0], r.Y[1] - proj[1], r.Y[2] - proj[2]}); d > 1e-4 {
					t.Errorf("p=%d query %v: closest point %v want %v", p, q, r.Y, proj)
				}
			}
		})
	}
}

func TestClosestPointsFarAway(t *testing.T) {
	f := NewUniform(cubeSphereRoots(6, 1), 0)
	par.Run(2, par.SKX(), func(c *par.Comm) {
		var pts [][3]float64
		if c.Rank() == 0 {
			pts = [][3]float64{{5, 5, 5}}
		}
		res := f.ClosestPoints(c, pts, 0.1)
		if c.Rank() == 0 {
			if res[0].PatchID != -1 {
				t.Errorf("far point got patch %d", res[0].PatchID)
			}
		}
	})
}

func TestClosestPointsEmptyForest(t *testing.T) {
	f := &Forest{}
	par.Run(1, par.SKX(), func(c *par.Comm) {
		res := f.ClosestPoints(c, [][3]float64{{0, 0, 0}}, 1)
		if res[0].PatchID != -1 {
			t.Error("empty forest should return no patch")
		}
	})
}

func TestNearPairsBasic(t *testing.T) {
	grid := morton.NewGrid([3]float64{-10, -10, -10}, 1.0)
	for _, p := range []int{1, 2, 4} {
		par.Run(p, par.SKX(), func(c *par.Comm) {
			// Rank 0 registers two boxes; all ranks query points.
			var boxes []BoxItem
			if c.Rank() == 0 {
				boxes = []BoxItem{
					{ID: 7, Lo: [3]float64{0, 0, 0}, Hi: [3]float64{2, 2, 2}},
					{ID: 9, Lo: [3]float64{5, 5, 5}, Hi: [3]float64{6, 6, 6}},
				}
			}
			points := []PointItem{
				{ID: 0, Pos: [3]float64{1, 1, 1}},       // inside box 7
				{ID: 1, Pos: [3]float64{5.5, 5.5, 5.5}}, // inside box 9
				{ID: 2, Pos: [3]float64{-3, -3, -3}},    // no box
			}
			got := NearPairs(c, grid, boxes, points)
			if len(got[0]) != 1 || got[0][0] != 7 {
				t.Errorf("p=%d rank=%d point 0: %v", p, c.Rank(), got[0])
			}
			if len(got[1]) != 1 || got[1][0] != 9 {
				t.Errorf("p=%d rank=%d point 1: %v", p, c.Rank(), got[1])
			}
			if len(got[2]) != 0 {
				t.Errorf("p=%d rank=%d point 2 should be empty: %v", p, c.Rank(), got[2])
			}
		})
	}
}

func TestNearPairsCrossRank(t *testing.T) {
	grid := morton.NewGrid([3]float64{0, 0, 0}, 1.0)
	par.Run(3, par.SKX(), func(c *par.Comm) {
		// Each rank registers a box around x = rank*3 and queries a point in
		// the NEXT rank's box: pairs must cross ranks.
		r := float64(c.Rank())
		boxes := []BoxItem{{
			ID: uint64(100 + c.Rank()),
			Lo: [3]float64{3 * r, 0, 0},
			Hi: [3]float64{3*r + 1, 1, 1},
		}}
		next := float64((c.Rank() + 1) % 3)
		points := []PointItem{{ID: 0, Pos: [3]float64{3*next + 0.5, 0.5, 0.5}}}
		got := NearPairs(c, grid, boxes, points)
		want := uint64(100 + (c.Rank()+1)%3)
		if len(got[0]) != 1 || got[0][0] != want {
			t.Errorf("rank %d: got %v want [%d]", c.Rank(), got[0], want)
		}
	})
}

func TestMeanPatchSize(t *testing.T) {
	f := NewUniform(cubeSphereRoots(8, 2), 1)
	// Patch sizes shrink by 2x per refinement level.
	f2 := f.RefineOnce()
	ratio := f.MeanPatchSize() / f2.MeanPatchSize()
	if math.Abs(ratio-2) > 0.1 {
		t.Fatalf("size ratio %v, want ~2", ratio)
	}
}

func TestSplitRootsGraded(t *testing.T) {
	mk := func() *patch.Patch { return cubeSphereRoots(8, 1)[0] }
	roots := []*patch.Patch{mk(), mk(), mk()}
	const levels = 2
	out, origin := SplitRootsGraded(roots, []EdgeGrade{
		{Root: 0, Edge: patch.EdgeVLo, Levels: levels},
		{Root: 2, Edge: patch.EdgeULo, Levels: levels},
		{Root: 2, Edge: patch.EdgeUHi, Levels: levels},
	})
	// Root 0: levels+1 panels; root 1 untouched; root 2: opposite-edge
	// grades merge into one ladder of 2(levels+1) panels (shared middle).
	want := (levels + 1) + 1 + 2*(levels+1)
	if len(out) != want || len(origin) != want {
		t.Fatalf("split produced %d roots (origin %d), want %d", len(out), len(origin), want)
	}
	counts := map[int]int{}
	for _, o := range origin {
		counts[o]++
	}
	if counts[0] != levels+1 || counts[1] != 1 || counts[2] != 2*(levels+1) {
		t.Fatalf("origin counts %v", counts)
	}
	// Area conserved per root.
	for ri, r := range roots {
		var area float64
		for i, p := range out {
			if origin[i] == ri {
				area += p.Area()
			}
		}
		// Composite panel quadrature resolves the non-polynomial area
		// integrand slightly better than the parent's single rule, so
		// agreement is to quadrature accuracy, not machine precision.
		if ref := r.Area(); math.Abs(area-ref) > 1e-5*ref {
			t.Fatalf("root %d: split area %g vs %g", ri, area, ref)
		}
	}
	// The untouched root is the same object.
	if out[levels+1] != roots[1] {
		t.Fatal("ungraded root must pass through unchanged")
	}
	// Graded stacks feed the uniform forest as ordinary roots.
	f := NewUniform(out, 1)
	if f.NumPatches() != 4*len(out) {
		t.Fatalf("forest over graded roots: %d patches", f.NumPatches())
	}
}

// The Newton searches of a ClosestPoints call run in point chunks on the
// node's worker pool; every point's result must be the same bits on one
// core and on four, and concurrent searches on one patch must be race-free.
func TestClosestPointsBitIdenticalAcrossCoreCounts(t *testing.T) {
	f := NewUniform(cubeSphereRoots(8, 1), 1)
	rng := rand.New(rand.NewSource(5))
	queries := make([][3]float64, 10*closestGrain+3)
	for i := range queries {
		d := patch.Normalize([3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
		r := 0.8 + 0.4*rng.Float64() // both sides of the surface, some beyond dEps
		queries[i] = [3]float64{r * d[0], r * d[1], r * d[2]}
	}
	runAt := func(procs int) []Closest {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var out []Closest
		par.Run(1, par.SKX(), func(c *par.Comm) { out = f.ClosestPoints(c, queries, 0.15) })
		return out
	}
	one, four := runAt(1), runAt(4)
	near := 0
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("query %d: %+v on one core, %+v on four", i, one[i], four[i])
		}
		if one[i].PatchID >= 0 {
			near++
		}
	}
	if near == 0 || near == len(one) {
		t.Fatalf("%d of %d queries in the near zone: want a mix", near, len(one))
	}
}
