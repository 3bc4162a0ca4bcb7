package network

// Sign-convention table test across ALL vessel and network builders — the
// regression guard for the inverted-trefoil bug class fixed in PR 2 (a
// surface built with inward normals makes InsideIndicator report -1 inside
// and silently breaks Fill). Every builder must satisfy: indicator ≈ 1 at a
// known interior point, ≈ 0 at a known exterior point, and (for networks)
// the blended signed distance must agree in sign.

import (
	"math"
	"testing"

	"rbcflow/internal/bie"
	"rbcflow/internal/forest"
	"rbcflow/internal/vessel"
)

func indicatorBIE() bie.Params {
	return bie.Params{QuadNodes: 7, NearFactor: 0.8}
}

// TestFillWithBlendedSDF covers the vessel.Fill SDF hook: filling a blended
// Y-bifurcation against the network's signed-distance field places every
// cell strictly inside the wall (verified against the field itself, which
// is 1-Lipschitz, so the margin certifies a clearance ball) and never
// accepts a lattice point the double-layer indicator would also reject.
func TestFillWithBlendedSDF(t *testing.T) {
	n := testY()
	g, err := BuildGeometry(n, TubeParams{Order: 4, AxialLen: 3.5})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Surface(0, indicatorBIE())
	prm := vessel.FillParams{
		SphOrder: 4, Spacing: 1.1, Radius: 0.3, WallMargin: 0.1, Seed: 5,
		SDF: g.SDF(),
	}
	cells := vessel.Fill(s, prm)
	if len(cells) == 0 {
		t.Fatal("SDF-driven fill placed no cells")
	}
	sdf := g.SDF()
	for i, c := range cells {
		ctr := c.Centroid()
		// Fill margins the JITTERED radius (>= 0.85·Radius); the nominal
		// lower bound must hold at the center, and — the real guarantee —
		// every membrane point must be strictly inside the wall.
		if d := sdf(ctr); d > -(0.85*prm.Radius + prm.WallMargin) {
			t.Fatalf("cell %d at %v violates the SDF margin: %g", i, ctr, d)
		}
		for k := range c.X[0] {
			p := [3]float64{c.X[0][k], c.X[1][k], c.X[2][k]}
			if d := sdf(p); d >= 0 {
				t.Fatalf("cell %d membrane point %v outside the wall: %g", i, p, d)
			}
		}
		if v := s.InsideIndicator(ctr); math.Abs(v-1) > 0.15 {
			t.Fatalf("cell %d at %v not inside per the double-layer indicator: %g", i, ctr, v)
		}
	}
}

func TestInsideIndicatorSignConventionTable(t *testing.T) {
	type entry struct {
		name    string
		surface func() *bie.Surface
		geom    func() *Geometry // nil for non-network builders
		inside  [][3]float64
		outside [][3]float64
		tol     float64
	}
	mkNet := func(n *Network) func() *Geometry {
		return func() *Geometry {
			g, err := BuildGeometry(n, TubeParams{Order: 4, AxialLen: 3.5})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	yNet := testY()
	treeNet := BinaryTree(TreeParams{Depth: 1, RootRadius: 1, RootLen: 5})
	honeyNet, _, _ := Honeycomb(HoneycombParams{Rows: 1, Cols: 2, Radius: 0.8, Edge: 4})
	table := []entry{
		{
			name: "torus",
			surface: func() *bie.Surface {
				return bie.NewSurface(forest.NewUniform(vessel.TorusRoots(8, 6, 4, 3, 1), 0), indicatorBIE())
			},
			inside:  [][3]float64{{3, 0, 0}, {0, -3, 0}},
			outside: [][3]float64{{0, 0, 0}, {6, 6, 0}},
			tol:     0.05,
		},
		{
			name: "trefoil",
			surface: func() *bie.Surface {
				return bie.NewSurface(forest.NewUniform(vessel.TrefoilRoots(8, 12, 4, 1, 0.6), 0), indicatorBIE())
			},
			// (0, -1, 0) is the t=0 centerline point; (0, 0, 4) is far above.
			inside:  [][3]float64{{0, -1, 0}},
			outside: [][3]float64{{0, 0, 4}, {6, 6, 6}},
			tol:     0.05,
		},
		{
			name: "capsule",
			surface: func() *bie.Surface {
				return bie.NewSurface(forest.NewUniform(vessel.CapsuleRoots(8, 2.2, [3]float64{1, 1, 1.3}), 0), indicatorBIE())
			},
			inside:  [][3]float64{{0, 0, 0}, {0, 0, 2}},
			outside: [][3]float64{{3, 3, 3}},
			tol:     0.05,
		},
		{
			name:    "network-y",
			geom:    mkNet(yNet),
			inside:  [][3]float64{{2.5, 0, 0}, {5, 0, 0}}, // mid-parent and the junction node
			outside: [][3]float64{{5, 3, 0}, {0, 0, 5}},
			tol:     0.1,
		},
		{
			name:    "network-tree",
			geom:    mkNet(treeNet),
			inside:  [][3]float64{{2.5, 0, 0}, {5, 0, 0}},
			outside: [][3]float64{{0, 0, 5}, {5, 4, 0}},
			tol:     0.1,
		},
		{
			name: "network-honeycomb",
			geom: mkNet(honeyNet),
			inside: [][3]float64{
				honeyNet.Curve(0).Point(0.5),
				honeyNet.Curve(3).Point(0.5),
			},
			outside: [][3]float64{{0, 0, 6}, {-30, 0, 0}},
			tol:     0.1,
		},
	}
	for _, e := range table {
		e := e
		t.Run(e.name, func(t *testing.T) {
			var s *bie.Surface
			var g *Geometry
			if e.geom != nil {
				g = e.geom()
				s = g.Surface(0, indicatorBIE())
			} else {
				s = e.surface()
			}
			for _, p := range e.inside {
				if v := s.InsideIndicator(p); math.Abs(v-1) > e.tol {
					t.Errorf("%s: interior point %v has indicator %v, want 1 (inverted orientation?)", e.name, p, v)
				}
				if g != nil {
					if d := g.SDF()(p); d >= 0 {
						t.Errorf("%s: interior point %v has SDF %v, want negative", e.name, p, d)
					}
				}
			}
			for _, p := range e.outside {
				if v := s.InsideIndicator(p); math.Abs(v) > e.tol {
					t.Errorf("%s: exterior point %v has indicator %v, want 0", e.name, p, v)
				}
				if g != nil {
					if d := g.SDF()(p); d <= 0 {
						t.Errorf("%s: exterior point %v has SDF %v, want positive", e.name, p, d)
					}
				}
			}
		})
	}
}
