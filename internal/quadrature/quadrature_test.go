package quadrature

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func polyEval(coef []float64, x float64) float64 {
	var s float64
	for i := len(coef) - 1; i >= 0; i-- {
		s = s*x + coef[i]
	}
	return s
}

func polyIntegral(coef []float64) float64 {
	// Integral over [-1,1]: odd powers cancel.
	var s float64
	for i, c := range coef {
		if i%2 == 0 {
			s += 2 * c / float64(i+1)
		}
	}
	return s
}

func TestGaussLegendreExactness(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16, 17} {
		x, w := GaussLegendre(n)
		// Exact through degree 2n-1.
		coef := make([]float64, 2*n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		var got float64
		for i := range x {
			got += w[i] * polyEval(coef, x[i])
		}
		want := polyIntegral(coef)
		if math.Abs(got-want) > 1e-11*(1+math.Abs(want)) {
			t.Fatalf("n=%d: GL integral %v want %v", n, got, want)
		}
	}
}

func TestGaussLegendreSymmetry(t *testing.T) {
	x, w := GaussLegendre(10)
	for i := 0; i < 5; i++ {
		if math.Abs(x[i]+x[9-i]) > 1e-14 {
			t.Fatalf("nodes not symmetric: %v vs %v", x[i], x[9-i])
		}
		if math.Abs(w[i]-w[9-i]) > 1e-14 {
			t.Fatalf("weights not symmetric")
		}
	}
	var sum float64
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-2) > 1e-13 {
		t.Fatalf("weights sum %v want 2", sum)
	}
}

func TestClenshawCurtisExactness(t *testing.T) {
	for _, n := range []int{2, 4, 8, 10, 16} {
		x, w := ClenshawCurtis(n)
		if len(x) != n+1 {
			t.Fatalf("want %d nodes, got %d", n+1, len(x))
		}
		// CC with n+1 points is exact for degree n.
		coef := make([]float64, n+1)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		var got float64
		for i := range x {
			got += w[i] * polyEval(coef, x[i])
		}
		want := polyIntegral(coef)
		if math.Abs(got-want) > 1e-11*(1+math.Abs(want)) {
			t.Fatalf("n=%d: CC integral %v want %v", n, got, want)
		}
	}
}

func TestClenshawCurtisWeightsPositive(t *testing.T) {
	_, w := ClenshawCurtis(12)
	var sum float64
	for _, v := range w {
		if v <= 0 {
			t.Fatalf("nonpositive CC weight %v", v)
		}
		sum += v
	}
	if math.Abs(sum-2) > 1e-13 {
		t.Fatalf("CC weights sum %v", sum)
	}
}

func TestChebyshevNodes(t *testing.T) {
	x2 := chebyshevSecond(5)
	if x2[0] != -1 || x2[4] != 1 {
		t.Fatalf("second-kind endpoints wrong: %v", x2)
	}
	x1 := ChebyshevFirst(4)
	for _, v := range x1 {
		if v <= -1 || v >= 1 {
			t.Fatalf("first-kind node outside open interval: %v", v)
		}
	}
	for i := 1; i < len(x1); i++ {
		if x1[i] <= x1[i-1] {
			t.Fatalf("nodes not ascending: %v", x1)
		}
	}
}

func TestInterpolationReproducesPolynomials(t *testing.T) {
	n := 9
	x := chebyshevSecond(n)
	w := BaryWeights(x)
	coef := []float64{0.3, -1, 2, 0.5, -0.25, 1.5, 0, 2, -1} // degree 8
	f := make([]float64, n)
	for i := range x {
		f[i] = polyEval(coef, x[i])
	}
	for _, tpt := range []float64{-0.93, -0.4, 0, 0.17, 0.88, 1.2, -1.3} {
		got := interpolate(x, w, f, tpt)
		want := polyEval(coef, tpt)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("interp at %v: got %v want %v", tpt, got, want)
		}
	}
}

func TestInterpolateAtNode(t *testing.T) {
	x := chebyshevSecond(6)
	w := BaryWeights(x)
	f := []float64{1, 2, 3, 4, 5, 6}
	for i := range x {
		if got := interpolate(x, w, f, x[i]); got != f[i] {
			t.Fatalf("node hit %d: got %v want %v", i, got, f[i])
		}
	}
}

func TestDiffMatrix(t *testing.T) {
	n := 10
	x := chebyshevSecond(n)
	w := BaryWeights(x)
	d := DiffMatrix(x, w)
	// Differentiate sin on nodes; compare to cos.
	f := make([]float64, n)
	for i := range x {
		f[i] = math.Sin(x[i])
	}
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += d[i][j] * f[j]
		}
		if math.Abs(s-math.Cos(x[i])) > 1e-7 {
			t.Fatalf("diff at node %d: got %v want %v", i, s, math.Cos(x[i]))
		}
	}
}

func TestEquispacedSamples(t *testing.T) {
	x := EquispacedSamples(5)
	want := []float64{-1, -0.5, 0, 0.5, 1}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-15 {
			t.Fatalf("equispaced got %v", x)
		}
	}
	if x := EquispacedSamples(1); x[0] != 0 {
		t.Fatalf("single sample should be 0")
	}
}

// Property: Gauss-Legendre integrates random degree-(2n-1) monomials exactly.
func TestQuickGLMonomials(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		deg := rng.Intn(2 * n)
		x, w := GaussLegendre(n)
		var got float64
		for i := range x {
			got += w[i] * math.Pow(x[i], float64(deg))
		}
		want := 0.0
		if deg%2 == 0 {
			want = 2 / float64(deg+1)
		}
		return math.Abs(got-want) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: barycentric interpolation is linear in the data.
func TestQuickInterpLinearity(t *testing.T) {
	x := chebyshevSecond(7)
	w := BaryWeights(x)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 7)
		b := make([]float64, 7)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		alpha := rng.NormFloat64()
		tpt := 2*rng.Float64() - 1
		comb := make([]float64, 7)
		for i := range comb {
			comb[i] = a[i] + alpha*b[i]
		}
		lhs := interpolate(x, w, comb, tpt)
		rhs := interpolate(x, w, a, tpt) + alpha*interpolate(x, w, b, tpt)
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGradedBreakpoints(t *testing.T) {
	// levels <= 0: just the interval.
	if got := GradedBreakpoints(-1, 1, 0); len(got) != 2 || got[0] != -1 || got[1] != 1 {
		t.Fatalf("levels 0: %v", got)
	}
	// levels n: n+2 breakpoints, strictly increasing, panel widths shrink
	// by GradingRatio toward the start, innermost width =
	// (b-a)·GradingRatio^n.
	const a, b, ratio = 2.0, 5.0, GradingRatio
	for _, levels := range []int{1, 3, 6} {
		bks := GradedBreakpoints(a, b, levels)
		if len(bks) != levels+2 {
			t.Fatalf("levels %d: %d breakpoints", levels, len(bks))
		}
		if bks[0] != a || bks[len(bks)-1] != b {
			t.Fatalf("levels %d: endpoints %v", levels, bks)
		}
		for i := 1; i < len(bks); i++ {
			if bks[i] <= bks[i-1] {
				t.Fatalf("levels %d: not increasing: %v", levels, bks)
			}
		}
		inner := bks[1] - bks[0]
		if want := (b - a) * math.Pow(ratio, float64(levels)); math.Abs(inner-want) > 1e-12 {
			t.Fatalf("levels %d: innermost width %g want %g", levels, inner, want)
		}
		// Consecutive ladder widths grow by exactly 1/ratio (the first pair
		// is special: the innermost panel has width L·rⁿ while the next has
		// L·rⁿ⁻¹(1−r)).
		for i := 2; i+2 < len(bks); i++ {
			w0 := bks[i] - bks[i-1]
			w1 := bks[i+1] - bks[i]
			if math.Abs(w1/w0-1/ratio) > 1e-9 {
				t.Fatalf("levels %d: width ratio %g want %g (%v)", levels, w1/w0, 1/ratio, bks)
			}
		}
	}
}

func TestLagrangeCoeffsInto(t *testing.T) {
	x := chebyshevSecond(6)
	w := BaryWeights(x)
	c := make([]float64, 6)
	// Matches the allocating variant off-node.
	LagrangeCoeffsInto(c, x, w, 0.3)
	for i, v := range LagrangeCoeffs(x, w, 0.3) {
		if math.Abs(c[i]-v) > 1e-15 {
			t.Fatalf("coeff %d: %g vs %g", i, c[i], v)
		}
	}
	// Node hit resets stale entries.
	for i := range c {
		c[i] = 99
	}
	LagrangeCoeffsInto(c, x, w, x[2])
	for i, v := range c {
		want := 0.0
		if i == 2 {
			want = 1
		}
		if v != want {
			t.Fatalf("node-hit coeffs %v", c)
		}
	}
}

func TestGradedSpanBreakpoints(t *testing.T) {
	// Uniform when ungraded or at level 0 (one panel per graded end).
	if got := GradedSpanBreakpoints(0, 4, 4, false, false, 2); len(got) != 5 {
		t.Fatalf("uniform: %v", got)
	}
	if got := GradedSpanBreakpoints(0, 4, 4, true, true, 0); len(got) != 5 {
		t.Fatalf("level 0 must stay uniform: %v", got)
	}
	for _, tc := range []struct {
		n                int
		gradeLo, gradeHi bool
	}{
		{1, true, false}, {1, false, true}, {1, true, true},
		{2, true, true}, {3, true, false}, {4, true, true},
	} {
		bks := GradedSpanBreakpoints(1, 3, tc.n, tc.gradeLo, tc.gradeHi, 2)
		if bks[0] != 1 || bks[len(bks)-1] != 3 {
			t.Fatalf("%+v: endpoints %v", tc, bks)
		}
		for i := 1; i < len(bks); i++ {
			if bks[i] <= bks[i-1] {
				t.Fatalf("%+v: breakpoints not strictly increasing (no duplicates): %v", tc, bks)
			}
		}
		// Graded ends carry levels extra panels each.
		n := tc.n
		if tc.gradeLo && tc.gradeHi && n < 2 {
			n = 2
		}
		want := n + 1
		if tc.gradeLo {
			want += 2
		}
		if tc.gradeHi {
			want += 2
		}
		if len(bks) != want {
			t.Fatalf("%+v: %d breakpoints want %d (%v)", tc, len(bks), want, bks)
		}
	}
}

// chebyshevSecond returns n Chebyshev points of the second kind in [-1,1]
// (the Clenshaw–Curtis nodes), ascending: the reference nodes of the
// interpolation and quadrature tests.
func chebyshevSecond(n int) []float64 {
	if n == 1 {
		return []float64{0}
	}
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = -math.Cos(math.Pi * float64(j) / float64(n-1))
	}
	return x
}

// interpolate evaluates the polynomial interpolant of values f at nodes x
// (with barycentric weights w) at point t.
func interpolate(x, w, f []float64, t float64) float64 {
	c := LagrangeCoeffs(x, w, t)
	var s float64
	for j, cv := range c {
		s += cv * f[j]
	}
	return s
}
