package vessel

import (
	"math"
	"testing"

	"rbcflow/internal/bie"
	"rbcflow/internal/forest"
)

func torusSurface(level int) *bie.Surface {
	roots := TorusRoots(8, 6, 4, 3, 1)
	f := forest.NewUniform(roots, level)
	return bie.NewSurface(f, bie.Params{QuadNodes: 7, NearFactor: 0.8})
}

func TestTorusVolume(t *testing.T) {
	s := torusSurface(0)
	if s.F.NumPatches() != 24 {
		t.Fatalf("torus patches %d, want 6·4", s.F.NumPatches())
	}
	// Torus volume = 2π²Rr² = 2π²·3·1.
	want := 2 * math.Pi * math.Pi * 3
	if got := s.EnclosedVolume(); math.Abs(got-want) > 0.02*want {
		t.Fatalf("torus volume %v want %v", got, want)
	}
}

func TestTorusInsideIndicator(t *testing.T) {
	s := torusSurface(0)
	if v := s.InsideIndicator([3]float64{3, 0, 0}); math.Abs(v-1) > 0.05 {
		t.Fatalf("tube center should be inside: %v", v)
	}
	if v := s.InsideIndicator([3]float64{0, 0, 0}); math.Abs(v) > 0.05 {
		t.Fatalf("hole center should be outside: %v", v)
	}
}

func TestCapsuleVolume(t *testing.T) {
	// Ellipsoid volume 4/3·π·abc with semi-axes 2·axes: the Fig. 7
	// container (a sphere) and a stretched one.
	for _, axes := range [][3]float64{{1, 1, 1}, {1, 1, 1.5}} {
		roots := CapsuleRoots(8, 2, axes)
		f := forest.NewUniform(roots, 0)
		s := bie.NewSurface(f, bie.Params{QuadNodes: 7})
		want := 4.0 / 3 * math.Pi * 8 * axes[0] * axes[1] * axes[2]
		if got := s.EnclosedVolume(); math.Abs(got-want) > 0.02*want {
			t.Fatalf("capsule axes %v: volume %v want %v", axes, got, want)
		}
	}
}

func TestTrefoilBuilds(t *testing.T) {
	roots := TrefoilRoots(8, 12, 4, 1, 0.6)
	if len(roots) != 48 {
		t.Fatalf("trefoil root count %d", len(roots))
	}
	var a float64
	for _, p := range roots {
		a += p.Area()
	}
	if a <= 0 || math.IsNaN(a) {
		t.Fatalf("trefoil area %v", a)
	}
}

func TestFillPlacesCellsInside(t *testing.T) {
	s := torusSurface(0)
	cells := Fill(s, FillParams{
		SphOrder: 4, Spacing: 1.2, Radius: 0.35, WallMargin: 0.15, MaxCells: 12, Seed: 1,
	})
	if len(cells) == 0 {
		t.Fatal("no cells placed")
	}
	for i, c := range cells {
		ctr := c.Centroid()
		if v := s.InsideIndicator(ctr); math.Abs(v-1) > 0.1 {
			t.Fatalf("cell %d centroid outside vessel: indicator %v", i, v)
		}
	}
	vf := VolumeFraction(s, cells)
	if vf <= 0 || vf > 0.5 {
		t.Fatalf("volume fraction %v implausible", vf)
	}
}

func TestFillCellsDisjoint(t *testing.T) {
	s := torusSurface(0)
	cells := Fill(s, FillParams{
		SphOrder: 4, Spacing: 1.2, Radius: 0.35, WallMargin: 0.15, MaxCells: 10, Seed: 2,
	})
	for i := range cells {
		for j := i + 1; j < len(cells); j++ {
			ci, cj := cells[i].Centroid(), cells[j].Centroid()
			d := math.Sqrt((ci[0]-cj[0])*(ci[0]-cj[0]) + (ci[1]-cj[1])*(ci[1]-cj[1]) + (ci[2]-cj[2])*(ci[2]-cj[2]))
			if d < 0.8 { // 2·max radius ≈ 0.8 with jitter margin
				t.Fatalf("cells %d,%d too close: %v", i, j, d)
			}
		}
	}
}

func TestTorusVolumeAnalyticFamily(t *testing.T) {
	// Volume = 2π²Rr² across a family of radii, not just the default.
	for _, rr := range [][2]float64{{3, 1}, {4, 0.75}, {2.5, 0.5}} {
		R, r := rr[0], rr[1]
		roots := TorusRoots(8, 6, 4, R, r)
		s := bie.NewSurface(forest.NewUniform(roots, 0), bie.Params{QuadNodes: 7})
		want := 2 * math.Pi * math.Pi * R * r * r
		if got := s.EnclosedVolume(); math.Abs(got-want) > 0.02*want {
			t.Fatalf("torus R=%v r=%v volume %v want %v", R, r, got, want)
		}
	}
}

func TestFillDeterministic(t *testing.T) {
	s := torusSurface(0)
	prm := FillParams{SphOrder: 4, Spacing: 1.2, Radius: 0.35, WallMargin: 0.15, MaxCells: 12, Seed: 9}
	a := Fill(s, prm)
	b := Fill(s, prm)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("fill not reproducible: %d vs %d cells", len(a), len(b))
	}
	for i := range a {
		ca, cb := a[i].Centroid(), b[i].Centroid()
		for d := 0; d < 3; d++ {
			if ca[d] != cb[d] {
				t.Fatalf("cell %d centroid differs between identical seeds: %v vs %v", i, ca, cb)
			}
		}
		if a[i].Volume() != b[i].Volume() {
			t.Fatalf("cell %d size jitter differs between identical seeds", i)
		}
	}
	// A different seed must shuffle the jitter.
	prm.Seed = 10
	c := Fill(s, prm)
	same := len(c) == len(a)
	if same {
		for i := range a {
			if a[i].Volume() != c[i].Volume() {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fills")
	}
}

func TestFillRespectsWallMargin(t *testing.T) {
	s := torusSurface(0)
	prm := FillParams{SphOrder: 4, Spacing: 1.2, Radius: 0.35, WallMargin: 0.15, Seed: 3}
	cells := Fill(s, prm)
	if len(cells) == 0 {
		t.Fatal("no cells placed")
	}
	probe := prm.Radius + prm.WallMargin
	for i, c := range cells {
		if !insideWithMargin(s, c.Centroid(), probe) {
			t.Fatalf("cell %d violates the wall margin at %v", i, c.Centroid())
		}
	}
}

func TestFillMaxCellsCap(t *testing.T) {
	s := torusSurface(0)
	base := FillParams{SphOrder: 4, Spacing: 1.0, Radius: 0.3, WallMargin: 0.1, Seed: 4}
	uncapped := Fill(s, base)
	if len(uncapped) < 5 {
		t.Fatalf("expected a well-populated torus, got %d cells", len(uncapped))
	}
	capped := base
	capped.MaxCells = 5
	cells := Fill(s, capped)
	if len(cells) != 5 {
		t.Fatalf("MaxCells=5 produced %d cells", len(cells))
	}
	// The cap truncates the same deterministic sequence.
	for i := range cells {
		if cells[i].Centroid() != uncapped[i].Centroid() {
			t.Fatalf("cap changed placement order at cell %d", i)
		}
	}
}

func TestWallInflowTangential(t *testing.T) {
	s := torusSurface(0)
	g := WallInflow(s, 0, math.Pi/2, 1.0)
	if len(g) != 3*len(s.Pts) {
		t.Fatalf("inflow length %d, want %d", len(g), 3*len(s.Pts))
	}
	var active int
	for k, n := range s.Nrm {
		gv := [3]float64{g[3*k], g[3*k+1], g[3*k+2]}
		mag := math.Sqrt(gv[0]*gv[0] + gv[1]*gv[1] + gv[2]*gv[2])
		if mag > 1e-12 {
			active++
			dn := gv[0]*n[0] + gv[1]*n[1] + gv[2]*n[2]
			if math.Abs(dn)/mag > 1e-8 {
				t.Fatalf("inflow not tangential at node %d", k)
			}
		}
	}
	if active == 0 {
		t.Fatal("no active inflow nodes")
	}
}
