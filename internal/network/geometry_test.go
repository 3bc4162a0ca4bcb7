package network

import (
	"math"
	"testing"

	"rbcflow/internal/bie"
	"rbcflow/internal/core"
	"rbcflow/internal/par"
	"rbcflow/internal/patch"
)

func testY() *Network {
	n := YBifurcation(YParams{ParentRadius: 1, ChildRadius: 0.75, ParentLen: 5, ChildLen: 4, HalfAngle: math.Pi / 5})
	n.SetFlow(0, 2)
	n.SetPressure(2, 0)
	n.SetPressure(3, 0)
	return n
}

func lightBIE() bie.Params {
	return bie.Params{QuadNodes: 7, NearFactor: 0.8}
}

func TestYBifurcationVolume(t *testing.T) {
	// Acceptance criterion: divergence-theorem volume of the built surface
	// matches the summed analytic segment volumes within 5%.
	n := testY()
	g, err := BuildGeometry(n, TubeParams{})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Surface(0, lightBIE())
	var got float64
	for k, x := range s.Pts {
		nr := s.Nrm[k]
		got += (x[0]*nr[0] + x[1]*nr[1] + x[2]*nr[2]) * s.W[k] / 3
	}
	got = math.Abs(got)
	want := g.AnalyticVolume()
	if math.Abs(got-want) > 0.05*want {
		t.Fatalf("Y-bifurcation volume %v want %v (err %.2f%%)", got, want, 100*math.Abs(got-want)/want)
	}
	if math.Abs(got-want) > 0.01*want {
		t.Logf("volume error above 1%%: got %v want %v", got, want)
	}
}

func TestTubeNormalsPointOutOfFluid(t *testing.T) {
	// Wall normals must point away from the centerline, cap normals along
	// the outward axis (fluid is inside the tube).
	n := testY()
	g, err := BuildGeometry(n, TubeParams{})
	if err != nil {
		t.Fatal(err)
	}
	for ri, root := range g.Roots {
		meta := g.Meta[ri]
		for _, uv := range [][2]float64{{0, 0}, {-0.7, 0.3}, {0.5, -0.5}, {0.9, 0.9}} {
			x := root.Eval(uv[0], uv[1])
			nrm := root.Normal(uv[0], uv[1])
			var ref [3]float64
			switch meta.Kind {
			case RootWall:
				// Nearest centerline point of the owning segment.
				cu := n.Curve(meta.Seg)
				best := math.Inf(1)
				var cbest [3]float64
				for i := 0; i <= 200; i++ {
					c := cu.Point(float64(i) / 200)
					d := (x[0]-c[0])*(x[0]-c[0]) + (x[1]-c[1])*(x[1]-c[1]) + (x[2]-c[2])*(x[2]-c[2])
					if d < best {
						best, cbest = d, c
					}
				}
				ref = [3]float64{x[0] - cbest[0], x[1] - cbest[1], x[2] - cbest[2]}
			case RootJunctionHull:
				c := n.Nodes[meta.Node].Pos
				ref = [3]float64{x[0] - c[0], x[1] - c[1], x[2] - c[2]}
			case RootTerminalCap:
				for _, cp := range g.Caps {
					if cp.Node == meta.Node {
						ref = [3]float64{-cp.AxisIn[0], -cp.AxisIn[1], -cp.AxisIn[2]}
					}
				}
			}
			if patch.DotV(nrm, patch.Normalize(ref)) < 0.3 {
				t.Fatalf("root %d (kind %d) normal points inward at uv=%v: n=%v ref=%v",
					ri, meta.Kind, uv, nrm, ref)
			}
		}
	}
}

func countKinds(g *Geometry) (walls, tcaps, hulls int) {
	for _, m := range g.Meta {
		switch m.Kind {
		case RootWall:
			walls++
		case RootTerminalCap:
			tcaps++
		case RootJunctionHull:
			hulls++
		}
	}
	return
}

func TestGeometryRootCounts(t *testing.T) {
	n := testY()
	// Blended with edge-graded rims: each terminal cap becomes a center
	// patch plus tubeNV·(DefaultGradeLevels+1) annulus panels, still one Cap
	// record per node; one hull of at least tubeNV sectors per incident
	// segment, each split into a graded stack.
	g, err := BuildGeometry(n, TubeParams{AxialLen: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Roots) != len(g.Meta) {
		t.Fatalf("roots/meta length mismatch: %d vs %d", len(g.Roots), len(g.Meta))
	}
	wantCap := 3 * (1 + tubeNV*(DefaultGradeLevels+1))
	walls, tcaps, hulls := countKinds(g)
	if tcaps != wantCap {
		t.Fatalf("graded cap patch count: %d terminal (want %d)", tcaps, wantCap)
	}
	if stack := DefaultGradeLevels + 1; hulls%stack != 0 || hulls < 3*tubeNV*stack {
		t.Fatalf("graded hull patch count %d, want a multiple of %d and at least %d", hulls, stack, 3*4*stack)
	}
	if walls == 0 || len(g.Caps) != 3 {
		t.Fatalf("wall patches %d, caps %d", walls, len(g.Caps))
	}
}

func TestRMFSweepHandlesBentSegments(t *testing.T) {
	// A strongly bent Bezier centerline (near-vertical mid-direction) must
	// sweep without frame flips: consecutive axial patches share rim circles,
	// so total area is smooth and normals stay outward. The fixed-up-vector
	// trefoil frame would degenerate here.
	n := &Network{}
	a := n.AddNode([3]float64{0, 0, 0})
	b := n.AddNode([3]float64{4, 0, 3})
	n.Segs = append(n.Segs, Segment{A: a, B: b, Radius: 0.5, Ctrl: [][3]float64{{2, 0, 4}}})
	g, err := BuildGeometry(n, TubeParams{})
	if err != nil {
		t.Fatal(err)
	}
	cu := n.Curve(0)
	sw := newSweep(cu)
	// RMF frames vary continuously.
	_, prev, _ := sw.Frame(0)
	for i := 1; i <= 100; i++ {
		_, n1, _ := sw.Frame(float64(i) / 100)
		if patch.DotV(prev, n1) < 0.9 {
			t.Fatalf("frame jump at t=%v: %v -> %v", float64(i)/100, prev, n1)
		}
		prev = n1
	}
	// Surface area ≈ 2πrL + caps.
	var area float64
	for _, root := range g.Roots {
		area += root.Area()
	}
	L := cu.Length()
	want := 2*math.Pi*0.5*L + 2*math.Pi*0.5*0.5 // barrel + two disk caps
	if math.Abs(area-want) > 0.03*want {
		t.Fatalf("bent tube area %v want %v", area, want)
	}
}

func TestInflowFluxMatchesNetworkSolution(t *testing.T) {
	n := testY()
	f, err := SolveFlow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGeometry(n, TubeParams{})
	if err != nil {
		t.Fatal(err)
	}
	if imb := f.MaxImbalance(n); imb > 1e-10 {
		t.Fatalf("junction imbalance %g", imb)
	}
	s := g.Surface(0, lightBIE())
	bc := g.Inflow(s, f)
	if len(bc) != 3*len(s.Pts) {
		t.Fatalf("boundary condition length %d, want %d", len(bc), 3*len(s.Pts))
	}
	// Per-cap discrete flux ∮ g·n dA must equal −Q_in (n is outward), and
	// the total must vanish (Kirchhoff).
	capFlux := map[int]float64{}
	var total float64
	for pid := range s.F.Patches {
		meta := g.Meta[s.F.RootOf[pid]]
		if meta.Kind != RootTerminalCap {
			continue
		}
		for k := pid * s.NQ; k < (pid+1)*s.NQ; k++ {
			gn := bc[3*k]*s.Nrm[k][0] + bc[3*k+1]*s.Nrm[k][1] + bc[3*k+2]*s.Nrm[k][2]
			capFlux[meta.Node] += gn * s.W[k]
			total += gn * s.W[k]
		}
	}
	if len(capFlux) != 3 {
		t.Fatalf("expected 3 active caps, got %d", len(capFlux))
	}
	for node, flux := range capFlux {
		want := -f.TerminalInflow(n, node)
		if math.Abs(flux-want) > 0.02*math.Max(math.Abs(want), 1e-12) {
			t.Fatalf("cap %d flux %v want %v", node, flux, want)
		}
	}
	if math.Abs(total) > 0.02*math.Abs(f.TerminalInflow(n, 0)) {
		t.Fatalf("net flux %v should vanish", total)
	}
	// Walls and junction caps are no-slip.
	for pid := range s.F.Patches {
		meta := g.Meta[s.F.RootOf[pid]]
		if meta.Kind == RootTerminalCap {
			continue
		}
		for k := pid * s.NQ; k < (pid+1)*s.NQ; k++ {
			if bc[3*k] != 0 || bc[3*k+1] != 0 || bc[3*k+2] != 0 {
				t.Fatalf("nonzero wall BC on patch %d", pid)
			}
		}
	}
}

func TestSeedCellsRespectGeometryAndHaematocrit(t *testing.T) {
	n := testY()
	f, err := SolveFlow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	H := SplitHaematocrit(n, f, HaematocritParams{Inlet: 0.15, Gamma: 1.4})
	prm := SeedParams{SphOrder: 4, CellRadius: 0.28, WallMargin: 0.08, Seed: 7}
	cells := SeedCells(n, H, prm)
	if len(cells) == 0 {
		t.Fatal("no cells seeded")
	}
	// Every centroid lies inside some segment's tube with the wall margin.
	for ci, c := range cells {
		ctr := c.Centroid()
		inside := false
		for si, seg := range n.Segs {
			cu := n.Curve(si)
			best := math.Inf(1)
			for i := 0; i <= 300; i++ {
				p := cu.Point(float64(i) / 300)
				d := math.Sqrt((ctr[0]-p[0])*(ctr[0]-p[0]) + (ctr[1]-p[1])*(ctr[1]-p[1]) + (ctr[2]-p[2])*(ctr[2]-p[2]))
				best = math.Min(best, d)
			}
			if best <= seg.Radius-prm.CellRadius-prm.WallMargin+1e-6 {
				inside = true
				break
			}
		}
		if !inside {
			t.Fatalf("cell %d centroid %v outside every tube core", ci, ctr)
		}
	}
	// Pairwise separation.
	for i := range cells {
		for j := i + 1; j < len(cells); j++ {
			a, b := cells[i].Centroid(), cells[j].Centroid()
			d := math.Sqrt((a[0]-b[0])*(a[0]-b[0]) + (a[1]-b[1])*(a[1]-b[1]) + (a[2]-b[2])*(a[2]-b[2]))
			if d < 2.2*prm.CellRadius {
				t.Fatalf("cells %d,%d too close: %v (max combined extent %v)", i, j, d, 2.2*prm.CellRadius)
			}
		}
	}
	// Determinism.
	again := SeedCells(n, H, prm)
	if len(again) != len(cells) {
		t.Fatalf("seeding not deterministic: %d vs %d cells", len(again), len(cells))
	}
	for i := range cells {
		if again[i].Centroid() != cells[i].Centroid() {
			t.Fatalf("cell %d moved between identical seeds", i)
		}
	}
	// MaxCells cap.
	capped := SeedCells(n, H, SeedParams{SphOrder: 4, CellRadius: 0.28, WallMargin: 0.08, Seed: 7, MaxCells: 3})
	if len(capped) != 3 {
		t.Fatalf("MaxCells cap ignored: %d", len(capped))
	}
}

func TestNetworkSimulationSteps(t *testing.T) {
	// Acceptance criterion: a full core.Simulation through the Y-bifurcation
	// with haematocrit-seeded cells steps ≥ 3 times without NaNs.
	n := testY()
	f, err := SolveFlow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	H := SplitHaematocrit(n, f, HaematocritParams{Inlet: 0.06, Gamma: 1.4})
	g, err := BuildGeometry(n, TubeParams{Order: 6, AxialLen: 3.5})
	if err != nil {
		t.Fatal(err)
	}
	prm := bie.Params{QuadNodes: 5, NearFactor: 0.6}
	s := g.Surface(0, prm)
	bc := g.Inflow(s, f)
	cells := SeedCells(n, H, SeedParams{SphOrder: 4, CellRadius: 0.3, WallMargin: 0.12, Seed: 11, MaxCells: 6})
	if len(cells) == 0 {
		t.Fatal("no cells seeded")
	}
	cfg := core.Config{
		SphOrder: 4, Mu: 1, KappaB: 0.05, Dt: 0.02, MinSep: 0.06,
		FMM:      bie.FMMConfig{Order: 4, LeafSize: 64, DirectBelow: 1 << 40},
		GMRESMax: 25, GMRESTol: 1e-3, CollisionOn: true,
		WallPlan: sharedPlan(s),
	}
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sim := core.New(c, cfg, cells, s, bc)
		for step := 0; step < 3; step++ {
			st := sim.Step(c)
			if st.GMRESIters <= 0 {
				t.Errorf("step %d: no GMRES iterations", step)
				return
			}
			for ci, cell := range sim.Cells {
				for d := 0; d < 3; d++ {
					for _, v := range cell.X[d] {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Errorf("step %d cell %d: non-finite coordinate", step, ci)
							return
						}
					}
				}
			}
		}
	})
}
