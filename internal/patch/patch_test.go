package patch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// flatPatch is the plane z = 0.3u + 0.1v spanning [-1,1]².
func flatPatch(q int) *Patch {
	return FromFunc(q, func(u, v float64) [3]float64 {
		return [3]float64{u, v, 0.3*u + 0.1*v}
	})
}

// spherePatch maps [-1,1]² to a portion of the unit sphere (gnomonic-ish).
func spherePatch(q int) *Patch {
	return FromFunc(q, func(u, v float64) [3]float64 {
		x, y := u*0.5, v*0.5
		z := math.Sqrt(1 - x*x - y*y)
		return [3]float64{x, y, z}
	})
}

func TestEvalReproducesPolynomial(t *testing.T) {
	// A degree-(3,3) polynomial surface must be represented exactly by q=8.
	f := func(u, v float64) [3]float64 {
		return [3]float64{
			1 + u + u*u*v - 2*v*v*v,
			u*v + 0.5*u*u*u,
			2 - v + u*u*v*v,
		}
	}
	p := FromFunc(8, f)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		u := rng.Float64()*2 - 1
		v := rng.Float64()*2 - 1
		got := p.Eval(u, v)
		want := f(u, v)
		for d := 0; d < 3; d++ {
			if math.Abs(got[d]-want[d]) > 1e-11 {
				t.Fatalf("eval (%v,%v)[%d]: %v vs %v", u, v, d, got[d], want[d])
			}
		}
	}
}

func TestDerivsFiniteDifference(t *testing.T) {
	p := spherePatch(10)
	h := 1e-6
	for _, uv := range [][2]float64{{0.2, -0.4}, {-0.7, 0.3}, {0, 0}} {
		u, v := uv[0], uv[1]
		_, du, dv := p.Derivs(u, v)
		pu := p.Eval(u+h, v)
		mu := p.Eval(u-h, v)
		pv := p.Eval(u, v+h)
		mv := p.Eval(u, v-h)
		for d := 0; d < 3; d++ {
			fdU := (pu[d] - mu[d]) / (2 * h)
			fdV := (pv[d] - mv[d]) / (2 * h)
			if math.Abs(fdU-du[d]) > 1e-5 {
				t.Fatalf("du[%d] at %v: %v vs fd %v", d, uv, du[d], fdU)
			}
			if math.Abs(fdV-dv[d]) > 1e-5 {
				t.Fatalf("dv[%d] at %v: %v vs fd %v", d, uv, dv[d], fdV)
			}
		}
	}
}

func TestNormalOnSpherePatch(t *testing.T) {
	p := spherePatch(12)
	// On a sphere around the origin the unit normal is radial (up to sign).
	for _, uv := range [][2]float64{{0, 0}, {0.5, -0.5}, {-0.8, 0.2}} {
		pos := p.Eval(uv[0], uv[1])
		n := p.Normal(uv[0], uv[1])
		dot := math.Abs(DotV(n, Normalize(pos)))
		if math.Abs(dot-1) > 1e-8 {
			t.Fatalf("normal not radial at %v: |n·r̂| = %v", uv, dot)
		}
	}
}

func TestSubdivideExactness(t *testing.T) {
	p := spherePatch(8)
	children := p.Subdivide()
	checks := []struct {
		child  int
		cu, cv float64 // child params
		pu, pv float64 // parent params
	}{
		{0, 0, 0, -0.5, -0.5},
		{1, -1, 1, -1, 1},
		{2, 0.5, -0.5, 0.75, -0.75},
		{3, 1, 1, 1, 1},
	}
	for _, c := range checks {
		got := children[c.child].Eval(c.cu, c.cv)
		want := p.Eval(c.pu, c.pv)
		for d := 0; d < 3; d++ {
			if math.Abs(got[d]-want[d]) > 1e-11 {
				t.Fatalf("child %d mismatch: %v vs %v", c.child, got, want)
			}
		}
	}
}

func TestSubdivideAreaConservation(t *testing.T) {
	p := spherePatch(12)
	total := p.Area()
	children := p.Subdivide()
	var sum float64
	for _, c := range children {
		sum += c.Area()
	}
	if math.Abs(sum-total) > 1e-8*total {
		t.Fatalf("area not conserved: %v vs %v", sum, total)
	}
}

func TestAreaFlatPatch(t *testing.T) {
	// z = 0.3u + 0.1v over [-1,1]²: area = 4·|n| with n=(−0.3,−0.1,1).
	p := flatPatch(6)
	want := 4 * math.Sqrt(0.3*0.3+0.1*0.1+1)
	if got := p.Area(); math.Abs(got-want) > 1e-10 {
		t.Fatalf("flat area %v want %v", got, want)
	}
	if s := p.Size(); math.Abs(s-math.Sqrt(want)) > 1e-10 {
		t.Fatalf("size %v", s)
	}
}

func TestBBoxContainsSurface(t *testing.T) {
	p := spherePatch(8)
	lo, hi := p.BBox(0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		pos := p.Eval(rng.Float64()*2-1, rng.Float64()*2-1)
		for d := 0; d < 3; d++ {
			// Chebyshev nodes include the boundary, and the patch is convex
			// enough here; allow tiny slack for interior extrema.
			if pos[d] < lo[d]-1e-9 || pos[d] > hi[d]+1e-9 {
				t.Fatalf("point %v outside bbox [%v, %v]", pos, lo, hi)
			}
		}
	}
	loP, hiP := p.BBox(0.5)
	for d := 0; d < 3; d++ {
		if loP[d] != lo[d]-0.5 || hiP[d] != hi[d]+0.5 {
			t.Fatal("pad not applied")
		}
	}
}

func TestClosestPointInterior(t *testing.T) {
	p := flatPatch(6)
	// Point straight above the plane point at (u,v) = (0.25, -0.5).
	surf := p.Eval(0.25, -0.5)
	n := p.Normal(0.25, -0.5)
	x := [3]float64{surf[0] + 0.3*n[0], surf[1] + 0.3*n[1], surf[2] + 0.3*n[2]}
	u, v, y, dist := p.ClosestPoint(x)
	if math.Abs(dist-0.3) > 1e-8 {
		t.Fatalf("closest distance %v want 0.3", dist)
	}
	if math.Abs(u-0.25) > 1e-6 || math.Abs(v+0.5) > 1e-6 {
		t.Fatalf("closest params (%v,%v)", u, v)
	}
	if d := Norm([3]float64{y[0] - surf[0], y[1] - surf[1], y[2] - surf[2]}); d > 1e-7 {
		t.Fatalf("closest point off by %v", d)
	}
}

func TestClosestPointClampsToEdge(t *testing.T) {
	p := flatPatch(6)
	// A point "beyond" the u=1 edge must clamp to the boundary.
	x := [3]float64{5, 0, 0.3 * 5}
	u, _, _, _ := p.ClosestPoint(x)
	if u != 1 {
		t.Fatalf("u = %v, want clamp at 1", u)
	}
}

func TestClosestPointOnCurvedPatch(t *testing.T) {
	p := spherePatch(12)
	// For points along the radial direction of a sphere point, the closest
	// point is that sphere point.
	target := p.Eval(0.3, 0.6)
	x := [3]float64{target[0] * 1.5, target[1] * 1.5, target[2] * 1.5}
	_, _, y, dist := p.ClosestPoint(x)
	wantDist := 0.5 * Norm(target) // |x| - 1 = 0.5 since |target| = 1
	if math.Abs(dist-wantDist) > 1e-6 {
		t.Fatalf("dist %v want %v", dist, wantDist)
	}
	for d := 0; d < 3; d++ {
		if math.Abs(y[d]-target[d]) > 1e-5 {
			t.Fatalf("closest point %v want %v", y, target)
		}
	}
}

// Property: Eval at node points returns the stored node values exactly.
func TestQuickEvalAtNodes(t *testing.T) {
	p := spherePatch(8)
	nodes := Nodes(8)
	f := func(iRaw, jRaw uint8) bool {
		i := int(iRaw) % 9
		j := int(jRaw) % 9
		got := p.Eval(nodes[i], nodes[j])
		want := p.Val[i*9+j]
		for d := 0; d < 3; d++ {
			if got[d] != want[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	a := [3]float64{1, 0, 0}
	b := [3]float64{0, 1, 0}
	if c := Cross(a, b); c != [3]float64{0, 0, 1} {
		t.Fatalf("cross %v", c)
	}
	if n := Normalize([3]float64{3, 0, 4}); math.Abs(n[0]-0.6) > 1e-15 || math.Abs(n[2]-0.8) > 1e-15 {
		t.Fatalf("normalize %v", n)
	}
	if z := Normalize([3]float64{}); z != [3]float64{} {
		t.Fatal("normalize zero changed")
	}
}

func TestSubpatchExactness(t *testing.T) {
	p := spherePatch(6)
	sp := p.Subpatch(-0.4, 0.25, 0.1, 1)
	for _, uv := range [][2]float64{{-1, -1}, {0.3, -0.7}, {1, 1}, {0, 0}} {
		uu := -0.4 + (0.25 - -0.4)*(uv[0]+1)/2
		vv := 0.1 + (1-0.1)*(uv[1]+1)/2
		want := p.Eval(uu, vv)
		got := sp.Eval(uv[0], uv[1])
		for d := 0; d < 3; d++ {
			if math.Abs(got[d]-want[d]) > 1e-12 {
				t.Fatalf("subpatch mismatch at %v: %v vs %v", uv, got, want)
			}
		}
	}
}

func TestSplitEdgeGradedPartition(t *testing.T) {
	p := spherePatch(6)
	const levels = 3
	for _, edge := range []Edge{EdgeULo, EdgeUHi, EdgeVLo, EdgeVHi} {
		stack := p.SplitEdgeGraded(edge, levels)
		if len(stack) != levels+1 {
			t.Fatalf("edge %d: %d panels", edge, len(stack))
		}
		// Total area is conserved (the panels partition the parent).
		var area float64
		for _, s := range stack {
			area += s.Area()
		}
		// Agreement is to quadrature accuracy (the area integrand is not
		// polynomial), not machine precision.
		if ref := p.Area(); math.Abs(area-ref) > 1e-5*ref {
			t.Fatalf("edge %d: split area %g vs parent %g", edge, area, ref)
		}
		// The graded edge curve is preserved exactly: the first panel's
		// matching edge equals the parent's.
		probe := func(pp *Patch, w float64) [3]float64 {
			switch edge {
			case EdgeULo:
				return pp.Eval(-1, w)
			case EdgeUHi:
				return pp.Eval(1, w)
			case EdgeVLo:
				return pp.Eval(w, -1)
			default:
				return pp.Eval(w, 1)
			}
		}
		// The rim-side (innermost) panel is emitted first for every edge.
		rim := stack[0]
		for _, w := range []float64{-1, -0.3, 0.6, 1} {
			a, b := probe(p, w), probe(rim, w)
			if d := math.Hypot(math.Hypot(a[0]-b[0], a[1]-b[1]), a[2]-b[2]); d > 1e-12 {
				t.Fatalf("edge %d: rim curve moved by %g at w=%g", edge, d, w)
			}
		}
	}
	// levels <= 0 returns the patch unchanged.
	if got := p.SplitEdgeGraded(EdgeULo, 0); len(got) != 1 || got[0] != p {
		t.Fatalf("levels 0 should be identity")
	}
}

func TestTensorEvalMatchesEval(t *testing.T) {
	p := spherePatch(6)
	us := []float64{-0.8, 0.1, 0.9}
	vs := []float64{-0.5, 0.4}
	pos := make([][3]float64, len(us)*len(vs))
	du := make([][3]float64, len(us)*len(vs))
	dv := make([][3]float64, len(us)*len(vs))
	p.TensorEval(us, vs, pos)
	p.TensorDerivs(us, vs, pos, du, dv)
	for i, u := range us {
		for j, v := range vs {
			wantP, wantDu, wantDv := p.Derivs(u, v)
			k := i*len(vs) + j
			for d := 0; d < 3; d++ {
				if math.Abs(pos[k][d]-wantP[d]) > 1e-12 {
					t.Fatalf("pos mismatch at (%g,%g)", u, v)
				}
				if math.Abs(du[k][d]-wantDu[d]) > 1e-10 {
					t.Fatalf("du mismatch at (%g,%g)", u, v)
				}
				if math.Abs(dv[k][d]-wantDv[d]) > 1e-10 {
					t.Fatalf("dv mismatch at (%g,%g)", u, v)
				}
			}
		}
	}
}

// The closest-point search runs per (target, candidate patch) on every step:
// its seeds are cached per patch and its Newton loop interpolates through
// stack buffers, so after the first call on a patch it must not allocate.
func TestClosestPointDoesNotAllocate(t *testing.T) {
	p := spherePatch(12)
	x := [3]float64{0.2, 0.3, 1.4}
	p.ClosestPoint(x) // fills the seed grid and the derivative patches
	if n := testing.AllocsPerRun(20, func() { p.ClosestPoint(x) }); n != 0 {
		t.Fatalf("ClosestPoint allocates %v times per call", n)
	}
}

// randomPatch has independent random nodal values: a polynomial with every
// coefficient active, so no term of the evaluator is multiplied by zero.
func randomPatch(q int, rng *rand.Rand) *Patch {
	p := &Patch{Q: q, Val: make([][3]float64, (q+1)*(q+1))}
	for k := range p.Val {
		p.Val[k] = [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	return p
}

func randomParams(n int, rng *rand.Rand) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = 2*rng.Float64() - 1
	}
	return ts
}

// TestTensorDerivsMatchesDerivativePatches: the shared-contraction evaluator
// (coefficient rows times the differentiation matrix) is the same polynomial
// as the derivative-patch route of Derivs, on grids that fit the stack
// buffers and on grids that fall back to the heap.
func TestTensorDerivsMatchesDerivativePatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for q := 4; q <= 12; q++ {
		p := randomPatch(q, rng)
		for _, grid := range [][2]int{{6, 6}, {3, stackNodes}, {stackNodes + 3, 2}, {4, stackNodes + 4}} {
			us, vs := randomParams(grid[0], rng), randomParams(grid[1], rng)
			us[0], vs[len(vs)-1] = Nodes(q)[1], 1 // a node and an edge
			n := len(us) * len(vs)
			pos, du, dv := make([][3]float64, n), make([][3]float64, n), make([][3]float64, n)
			posOnly := make([][3]float64, n)
			p.TensorDerivs(us, vs, pos, du, dv)
			p.TensorEval(us, vs, posOnly)
			for i, u := range us {
				for j, v := range vs {
					k := i*len(vs) + j
					wantP, wantDu, wantDv := p.Derivs(u, v)
					// Derivatives of an order-q interpolant of O(1) data grow
					// like q²; the tolerance is relative to that scale.
					scale := float64(q * q)
					for d := 0; d < 3; d++ {
						if posOnly[k][d] != pos[k][d] {
							t.Fatalf("order %d grid %v: TensorEval and TensorDerivs positions differ", q, grid)
						}
						if e := math.Abs(pos[k][d] - wantP[d]); e > 1e-12 {
							t.Fatalf("order %d grid %v: pos off by %g at (%g,%g)", q, grid, e, u, v)
						}
						if e := math.Abs(du[k][d] - wantDu[d]); e > 1e-12*scale {
							t.Fatalf("order %d grid %v: du off by %g at (%g,%g)", q, grid, e, u, v)
						}
						if e := math.Abs(dv[k][d] - wantDv[d]); e > 1e-12*scale {
							t.Fatalf("order %d grid %v: dv off by %g at (%g,%g)", q, grid, e, u, v)
						}
					}
				}
			}
		}
	}
}

// The plan build evaluates a 6×6 grid per integrated rectangle and a 3×3 one
// per visited rectangle, millions of times: neither may allocate.
func TestTensorEvaluatorsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	us, vs := randomParams(6, rng), randomParams(6, rng)
	pos, du, dv := make([][3]float64, 36), make([][3]float64, 36), make([][3]float64, 36)
	for _, q := range []int{6, 8} {
		p := randomPatch(q, rng)
		if n := testing.AllocsPerRun(20, func() { p.TensorDerivs(us, vs, pos, du, dv) }); n != 0 {
			t.Errorf("order %d: TensorDerivs allocates %v times per call", q, n)
		}
		if n := testing.AllocsPerRun(20, func() { p.TensorEval(us, vs, pos) }); n != 0 {
			t.Errorf("order %d: TensorEval allocates %v times per call", q, n)
		}
	}
}

func BenchmarkTensorDerivs6x6Order8(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	p := randomPatch(8, rng)
	us, vs := randomParams(6, rng), randomParams(6, rng)
	pos, du, dv := make([][3]float64, 36), make([][3]float64, 36), make([][3]float64, 36)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.TensorDerivs(us, vs, pos, du, dv)
	}
}

func BenchmarkTensorEval3x3Order8(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	p := randomPatch(8, rng)
	us, vs := randomParams(3, rng), randomParams(3, rng)
	pos := make([][3]float64, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.TensorEval(us, vs, pos)
	}
}
