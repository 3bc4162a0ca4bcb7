package network

// The junction-physics regression suite: watertightness, per-component
// flux solvability through the BIE solve, rim continuity, field properties,
// blend-aware seeding, and the typed error for a junction too tight to
// blend. These tests pin down
// the properties DESIGN.md claims for the blended bifurcation surfaces so
// the geometry layer can keep being refactored safely. All of them run in
// -short mode (the acceptance lane is `go test ./internal/network/... -run
// Junction -short`).

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"rbcflow/internal/bie"
	"rbcflow/internal/par"
	"rbcflow/internal/patch"
)

// junctionBIE is the light discretization the junction suite solves on.
// sharedPlan returns the full-surface quadrature plan of s, built on all
// cores once per fingerprint for the whole test binary: the solver tests of
// this package keep rebuilding the same few Y and tree surfaces, and the
// plan build is what they spend their time on.
var sharedPlans sync.Map // fingerprint -> *bie.QuadPlan

func sharedPlan(s *bie.Surface) *bie.QuadPlan {
	fp := bie.PlanFingerprint(s)
	if p, ok := sharedPlans.Load(fp); ok {
		return p.(*bie.QuadPlan)
	}
	p := bie.BuildQuadPlan(s, 0)
	sharedPlans.Store(fp, p)
	return p
}

func junctionBIE() bie.Params {
	return bie.Params{QuadNodes: 5, NearFactor: 0.6}
}

// volumeBIE only needs an accurate coarse quadrature.
func volumeBIE() bie.Params {
	return bie.Params{QuadNodes: 9, NearFactor: 0.5}
}

// TestJunctionNetFluxSolvability is the acceptance criterion of the
// blended model: on a Y-bifurcation at the default blend radius, the
// boundary condition's net flux through the one wall is below 1e-8 of the
// inlet flux — the zero-flux solvability condition of the interior
// Dirichlet problem. The BIE solve on that data must converge.
func TestJunctionNetFluxSolvability(t *testing.T) {
	n := testY()
	f, err := SolveFlow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGeometry(n, TubeParams{Order: 6, AxialLen: 3.5})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Surface(0, junctionBIE())
	bc := g.Inflow(s, f)

	qin := math.Abs(f.TerminalInflow(n, 0))
	if total := s.NetFlux(bc, nil); math.Abs(total) > 1e-8*qin {
		t.Fatalf("surface net flux %g exceeds 1e-8 of inlet flux %g", total, qin)
	}

	// Through the BIE solve: with the edge-graded rim discretization and
	// the rim-safe adaptive quadrature (internal/bie/adaptive.go), GMRES
	// converges ABSOLUTELY on the blended Y — the seed-era O(1e-1) stall is
	// gone, so this asserts a small absolute residual rather than the old
	// relative-vs-legacy behaviour. The CapGrading suite pins the full
	// grading ladder; here the default build must simply converge.
	var blendResid float64
	plan := sharedPlan(s)
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sv := bie.NewWallOperator(c, s, bie.WithFMM(bie.FMMConfig{DirectBelow: 1 << 40}), bie.WithPlan(plan))
		phi, res := bie.Solve(c, sv, bc, nil, 1e-8, 45)
		blendResid = res.Residual
		for _, v := range phi {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Error("non-finite density")
				return
			}
		}
	})
	if blendResid > 1e-6 {
		t.Fatalf("blended solve must converge absolutely: residual %g > 1e-6", blendResid)
	}
}

// TestFallbackJunctionFluxViolation pins that the defect of a capsule
// fallback junction cannot arise: a closed capsule per segment, whose net
// flux is O(Q) rather than zero. On the narrow Y, an opening the ladder can
// still blend is one wall with zero net flux; the too-tight opening is a
// *BlendError naming the junction node, with no geometry built around it.
func TestFallbackJunctionFluxViolation(t *testing.T) {
	n := narrowY(0.5)
	f, err := SolveFlow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGeometry(n, TubeParams{Order: 6, AxialLen: 3.5})
	if err != nil {
		t.Fatalf("narrow Y at half-angle 0.5 must blend: %v", err)
	}
	s := g.Surface(0, junctionBIE())
	qin := math.Abs(f.TerminalInflow(n, 0))
	if total := s.NetFlux(g.Inflow(s, f), nil); math.Abs(total) > 1e-8*qin {
		t.Fatalf("narrow Y net flux %g exceeds 1e-8 of inlet flux %g", total, qin)
	}

	g, err = BuildGeometry(narrowY(0.06), TubeParams{Order: 6, AxialLen: 3.5})
	var be *BlendError
	if !errors.As(err, &be) || g != nil {
		t.Fatalf("want a *BlendError and no geometry, got geometry %v and error %v", g != nil, err)
	}
	if len(be.Nodes) != 1 || be.Nodes[0].Node != 1 {
		t.Fatalf("BlendError should name node 1, got %+v", be.Nodes)
	}
}

// TestJunctionWatertightVolumeConvergence checks watertightness by the
// divergence theorem: under patch-order refinement the enclosed volume of
// the blended Y converges, and the closure identity ∮ n dA = 0 (exact for
// any watertight surface) holds to quadrature accuracy.
func TestJunctionWatertightVolumeConvergence(t *testing.T) {
	n := testY()
	var vols []float64
	for _, order := range []int{4, 6, 8} {
		g, err := BuildGeometry(n, TubeParams{Order: order, AxialLen: 3.5})
		if err != nil {
			t.Fatal(err)
		}
		s := g.Surface(0, volumeBIE())
		if defect := ClosureDefect(s); defect > 5e-6 {
			t.Fatalf("order %d: closure defect %g (surface not watertight)", order, defect)
		}
		vols = append(vols, s.EnclosedVolume())
	}
	d1 := math.Abs(vols[1] - vols[0])
	d2 := math.Abs(vols[2] - vols[1])
	if d2 > 0.5*d1 && d2 > 1e-3*vols[2] {
		t.Fatalf("volume not converging under refinement: %v (diffs %g, %g)", vols, d1, d2)
	}
	if d2 > 2e-3*vols[2] {
		t.Fatalf("volume ladder spread too wide: %v", vols)
	}

	// The ladder API agrees and its error bar is honest.
	vol, errEst, err := NumericalVolume(n, TubeParams{Order: 6, AxialLen: 3.5}, []int{6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vol-vols[2]) > 1e-12 {
		t.Fatalf("NumericalVolume %g disagrees with direct build %g", vol, vols[2])
	}
	if errEst > 2e-3*vol {
		t.Fatalf("volume error estimate %g too large for volume %g", errEst, vol)
	}
	// The blended volume stays near the tube-sum reference (collar trims,
	// blend bulges and the junction ball roughly cancel on this geometry).
	g, _ := BuildGeometry(n, TubeParams{Order: 6, AxialLen: 3.5})
	if ref := g.AnalyticVolume(); math.Abs(vol-ref) > 0.15*ref {
		t.Fatalf("blended volume %g implausibly far from tube-sum reference %g", vol, ref)
	}
}

// TestJunctionRimContinuity verifies the hull patches join the trimmed
// barrels on exact shared rim circles: every hull patch's inner edge lies
// on its owning segment's tube surface (SegDistance = 0), and the blended
// field vanishes there too (the blend is provably inactive at the collar).
func TestJunctionRimContinuity(t *testing.T) {
	n := testY()
	g, err := BuildGeometry(n, TubeParams{Order: 6, AxialLen: 3.5})
	if err != nil {
		t.Fatal(err)
	}
	field := g.Field()
	// With edge-graded collars only the innermost panel of each hull stack
	// touches the rim; identify rim panels by their closest edge's tube
	// residual and require at least one rim panel per hull sector patch
	// family (every stack contributes exactly one).
	var rims, rimPanels, hullPanels int
	for ri, m := range g.Meta {
		if m.Kind != RootJunctionHull {
			continue
		}
		hullPanels++
		edges := [2]func(w float64) [3]float64{
			func(w float64) [3]float64 { return g.Roots[ri].Eval(w, -1) },
			func(w float64) [3]float64 { return g.Roots[ri].Eval(-1, w) },
		}
		// Probe at w = 0 — a Clenshaw–Curtis node for every even order, so a
		// true rim edge evaluates to an exact rim sample there.
		edge := edges[0]
		if math.Abs(field.SegDistance(m.Seg, edges[1](0))) < math.Abs(field.SegDistance(m.Seg, edges[0](0))) {
			edge = edges[1]
		}
		if math.Abs(field.SegDistance(m.Seg, edge(0))) > 1e-9 {
			continue // interior panel of a graded stack: no rim edge
		}
		rimPanels++
		for _, w := range []float64{-1, -0.5, 0, 0.5, 1} {
			x := edge(w)
			if d := math.Abs(field.SegDistance(m.Seg, x)); d > 1e-9 {
				t.Fatalf("hull root %d rim point off segment %d tube by %g", ri, m.Seg, d)
			}
			if fv := math.Abs(field.Eval(x)); fv > 1e-9 {
				t.Fatalf("hull root %d rim point off blended wall by %g", ri, fv)
			}
			rims++
		}
	}
	if rims == 0 {
		t.Fatal("no hull rim points tested")
	}
	if want := hullPanels / (DefaultGradeLevels + 1); rimPanels < want {
		t.Fatalf("only %d of %d hull panels carry a rim edge (want at least %d, one per graded stack)",
			rimPanels, hullPanels, want)
	}
	// Hull interiors lie on the blended wall to patch-interpolation accuracy.
	var worst float64
	for ri, m := range g.Meta {
		if m.Kind != RootJunctionHull {
			continue
		}
		for _, uv := range [][2]float64{{0, 0}, {-0.6, 0.4}, {0.7, 0.7}, {0.3, -0.8}} {
			x := g.Roots[ri].Eval(uv[0], uv[1])
			worst = math.Max(worst, math.Abs(field.Eval(x)))
		}
	}
	if worst > 5e-3 {
		t.Fatalf("hull interior off the blended wall by %g", worst)
	}
}

// TestJunctionFieldProperties pins the Field contract: compact blend
// support (exact min far from junctions), the 1-Lipschitz bound, sign
// conventions, and agreement between Eval and EvalSharp away from blends.
func TestJunctionFieldProperties(t *testing.T) {
	n := testY()
	f := NewField(n, 0)
	if f.Kappa() != DefaultBlendRadius*0.75 {
		t.Fatalf("kappa %g want %g (smallest radius is the children's 0.75)", f.Kappa(), 0.75*DefaultBlendRadius)
	}
	// Sign convention: negative on the parent centerline, positive outside,
	// zero on the mid-parent tube wall.
	mid := [3]float64{2.5, 0, 0}
	if v := f.Eval(mid); math.Abs(v-(-1)) > 1e-12 {
		t.Fatalf("parent centerline depth %g want -1", v)
	}
	if v := f.Eval([3]float64{2.5, 1, 0}); math.Abs(v) > 1e-12 {
		t.Fatalf("mid-parent wall value %g want 0 (blend must be inactive here)", v)
	}
	if v := f.Eval([3]float64{2.5, 3, 0}); v < 1.9 {
		t.Fatalf("outside value %g want about 2", v)
	}
	if f.Eval(mid) != f.EvalSharp(mid) {
		t.Fatal("Eval and EvalSharp must agree away from junctions")
	}
	// At the junction node the blend deepens the field (smin <= min).
	node := [3]float64{5, 0, 0}
	if f.Eval(node) > f.EvalSharp(node) {
		t.Fatal("blend must not raise the field above the sharp union")
	}
	// Terminal flat caps: just beyond the inlet plane the field is positive
	// (the capsule end ball would report inside).
	if v := f.Eval([3]float64{-0.05, 0, 0}); v <= 0 {
		t.Fatalf("point behind the inlet cap reports inside: %g", v)
	}
	// 1-Lipschitz spot check on random pairs near the junction.
	pts := [][3]float64{{4.5, 0.3, 0.2}, {5.2, -0.4, 0.1}, {5.5, 0.9, -0.3}, {4.8, -1.0, 0.4}}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			df := math.Abs(f.Eval(pts[i]) - f.Eval(pts[j]))
			if df > dist(pts[i], pts[j])+1e-12 {
				t.Fatalf("field not 1-Lipschitz between %v and %v: |dF|=%g > |dx|=%g",
					pts[i], pts[j], df, dist(pts[i], pts[j]))
			}
		}
	}
}

// TestJunctionSeedingClearOfBlendedWall is the seeding satellite: at the
// per-segment target haematocrit, SeedNetworkCells places no cell whose
// surface crosses the blended wall.
func TestJunctionSeedingClearOfBlendedWall(t *testing.T) {
	n := testY()
	f, err := SolveFlow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	H := SplitHaematocrit(n, f, HaematocritParams{Inlet: 0.18, Gamma: 1.4})
	prm := SeedParams{SphOrder: 4, CellRadius: 0.26, WallMargin: 0.06, Seed: 3}
	cells := SeedCells(n, H, prm)
	if len(cells) == 0 {
		t.Fatal("no cells seeded")
	}
	field := NewField(n, 0)
	for ci, c := range cells {
		for i := range c.X[0] {
			p := [3]float64{c.X[0][i], c.X[1][i], c.X[2][i]}
			if v := field.Eval(p); v >= 0 {
				t.Fatalf("cell %d surface point %v on or outside the blended wall (F=%g)", ci, p, v)
			}
		}
	}
}

// TestJunctionDegreeTwoElbow exercises the blend at a degree-2 joint (the
// honeycomb corner case): two segments meeting at 120 degrees blend into a
// single watertight wall.
func TestJunctionDegreeTwoElbow(t *testing.T) {
	n := &Network{}
	a := n.AddNode([3]float64{0, 0, 0})
	b := n.AddNode([3]float64{4, 0, 0})
	c := n.AddNode([3]float64{4 + 4*math.Cos(math.Pi/3), 4 * math.Sin(math.Pi/3), 0})
	n.AddSegment(a, b, 0.8)
	n.AddSegment(b, c, 0.8)
	n.SetFlow(a, 1)
	n.SetPressure(c, 0)
	g, err := BuildGeometry(n, TubeParams{Order: 6, AxialLen: 3.5})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Surface(0, volumeBIE())
	if defect := ClosureDefect(s); defect > 1e-6 {
		t.Fatalf("elbow closure defect %g", defect)
	}
	f, err := SolveFlow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	bc := g.Inflow(s, f)
	if fl := s.NetFlux(bc, nil); math.Abs(fl) > 1e-8 {
		t.Fatalf("elbow net flux %g", fl)
	}
}

// narrowY builds the narrow-bifurcation probe geometry at a given half
// opening angle, with BCs attached so the flow solve works too.
func narrowY(halfAngle float64) *Network {
	n := YBifurcation(YParams{ParentRadius: 1, ChildRadius: 0.9, ParentLen: 5, ChildLen: 2.2, HalfAngle: halfAngle})
	n.SetFlow(0, 2)
	n.SetPressure(2, 0)
	n.SetPressure(3, 0)
	return n
}

// sweepY is the feasibility-sweep geometry: testY proportions (children at
// 3/4 the parent radius, long enough that the child tubes separate) with a
// variable half opening angle.
func sweepY(halfAngle float64) *Network {
	n := YBifurcation(YParams{ParentRadius: 1, ChildRadius: 0.75, ParentLen: 5, ChildLen: 4, HalfAngle: halfAngle})
	n.SetFlow(0, 2)
	n.SetPressure(2, 0)
	n.SetPressure(3, 0)
	return n
}

// TestJunctionHalfAngleFeasibilitySweep pins the feasibility frontier of
// the anisotropic collars on the sweep Y: every half-angle down to 0.25
// blends (the isotropic collars needed >= 0.40), and the genuinely
// impossible angles below that report a typed BlendError naming the node.
func TestJunctionHalfAngleFeasibilitySweep(t *testing.T) {
	for _, ha := range []float64{0.25, 0.30, 0.35, 0.40} {
		g, err := BuildGeometry(sweepY(ha), TubeParams{Order: 6, AxialLen: 3.5})
		if err != nil {
			t.Fatalf("half-angle %g must blend (isotropic collars only managed 0.40): %v", ha, err)
		}
		if g.EffectiveBlend <= 0 || g.EffectiveBlend > DefaultBlendRadius {
			t.Fatalf("half-angle %g: effective blend %g out of range", ha, g.EffectiveBlend)
		}
		t.Logf("half-angle %.2f: blended at effective blend %.3g", ha, g.EffectiveBlend)
	}
	for _, ha := range []float64{0.06, 0.10} {
		_, err := BuildGeometry(sweepY(ha), TubeParams{Order: 6, AxialLen: 3.5})
		var be *BlendError
		if !errors.As(err, &be) {
			t.Fatalf("half-angle %g: want a *BlendError, got %v", ha, err)
		}
		if len(be.Nodes) != 1 || be.Nodes[0].Node != 1 || be.Nodes[0].Reason == "" {
			t.Fatalf("half-angle %g: BlendError should name node 1 with a reason, got %+v", ha, be.Nodes)
		}
	}
}

// TestJunctionAnisotropicHullWatertight runs the watertightness ladder on a
// Y narrow enough that the collars are strongly anisotropic (the rim curve
// is non-planar and the blend-width ladder may engage): the closure
// identity ∮ n dA = 0 holds to quadrature accuracy and the enclosed volume
// converges under patch-order refinement.
func TestJunctionAnisotropicHullWatertight(t *testing.T) {
	n := sweepY(0.28)
	var vols []float64
	for _, order := range []int{4, 6, 8} {
		g, err := BuildGeometry(n, TubeParams{Order: order, AxialLen: 3.5})
		if err != nil {
			t.Fatal(err)
		}
		s := g.Surface(0, volumeBIE())
		if defect := ClosureDefect(s); defect > 5e-6 {
			t.Fatalf("order %d: closure defect %g (anisotropic hull not watertight)", order, defect)
		}
		vols = append(vols, s.EnclosedVolume())
	}
	d1 := math.Abs(vols[1] - vols[0])
	d2 := math.Abs(vols[2] - vols[1])
	if d2 > 0.5*d1 && d2 > 1e-3*vols[2] {
		t.Fatalf("volume not converging under refinement on the narrow Y: %v (diffs %g, %g)", vols, d1, d2)
	}
	if d2 > 2e-3*vols[2] {
		t.Fatalf("volume ladder spread too wide on the narrow Y: %v", vols)
	}
}

// TestJunctionTooTightIsBlendError: a bifurcation too narrow for any rung
// of the blend-width ladder is a typed *BlendError that names the junction
// node with a reason, and whose advice names what exists: the blend knob.
func TestJunctionTooTightIsBlendError(t *testing.T) {
	g, err := BuildGeometry(narrowY(0.06), TubeParams{Order: 6, AxialLen: 3.5})
	var be *BlendError
	if !errors.As(err, &be) {
		t.Fatalf("want a *BlendError, got geometry %v and error %v", g != nil, err)
	}
	if len(be.Nodes) != 1 || be.Nodes[0].Node != 1 || be.Nodes[0].Reason == "" {
		t.Fatalf("BlendError should name node 1 with a reason, got %+v", be.Nodes)
	}
	if msg := be.Error(); !strings.Contains(msg, "node 1:") || !strings.Contains(msg, "junction_blend") {
		t.Fatalf("BlendError text does not name node 1 and the junction_blend knob:\n%s", msg)
	}
}

// TestJunctionBlendRadiusSweep: the geometry stays watertight and solvable
// across blend radii, and a larger blend encloses at least as much volume.
func TestJunctionBlendRadiusSweep(t *testing.T) {
	n := testY()
	var prev float64
	for i, blend := range []float64{0.5, 1.0, 1.5} {
		g, err := BuildGeometry(n, TubeParams{Order: 6, AxialLen: 3.5, BlendRadius: blend})
		if err != nil {
			t.Fatalf("blend %g: %v", blend, err)
		}
		s := g.Surface(0, volumeBIE())
		if defect := ClosureDefect(s); defect > 1e-6 {
			t.Fatalf("blend %g: closure defect %g", blend, defect)
		}
		vol := s.EnclosedVolume()
		if i > 0 && vol < prev-1e-6 {
			t.Fatalf("volume must grow with blend radius: %g then %g", prev, vol)
		}
		prev = vol
	}
}

// TestJunctionHullNormalsOutward: hull patch normals point away from the
// junction node (the fluid-inside convention the BIE pipeline requires).
func TestJunctionHullNormalsOutward(t *testing.T) {
	n := testY()
	g, err := BuildGeometry(n, TubeParams{Order: 6, AxialLen: 3.5})
	if err != nil {
		t.Fatal(err)
	}
	for ri, m := range g.Meta {
		if m.Kind != RootJunctionHull {
			continue
		}
		P := n.Nodes[m.Node].Pos
		for _, uv := range [][2]float64{{0, 0}, {-0.7, 0.3}, {0.5, -0.5}, {0.9, 0.9}} {
			x := g.Roots[ri].Eval(uv[0], uv[1])
			nrm := g.Roots[ri].Normal(uv[0], uv[1])
			ref := patch.Normalize([3]float64{x[0] - P[0], x[1] - P[1], x[2] - P[2]})
			if patch.DotV(nrm, ref) < 0.2 {
				t.Fatalf("hull root %d normal points inward at uv=%v", ri, uv)
			}
		}
	}
}
