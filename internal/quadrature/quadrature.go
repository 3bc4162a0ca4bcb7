// Package quadrature provides the 1D quadrature rules and polynomial
// interpolation machinery underlying every discretization in rbcflow:
//
//   - Gauss–Legendre rules for the latitudinal direction of spherical
//     harmonic grids on RBC surfaces,
//   - Clenshaw–Curtis rules for the tensor-product polynomial patches that
//     discretize the blood vessel (paper §3.1),
//   - barycentric Lagrange interpolation / differentiation on those nodes.
package quadrature

import "math"

// GaussLegendre returns the n nodes (in (-1,1), ascending) and weights of the
// n-point Gauss–Legendre rule, exact for polynomials of degree 2n-1. The
// conversions round every product on its own: without them the spec lets a
// compiler fuse x*y + z into an FMA, and Go does on arm64, which would move
// the nodes — and every plan and digest built on them — by an ulp there.
func GaussLegendre(n int) (nodes, weights []float64) {
	nodes = make([]float64, n)
	weights = make([]float64, n)
	for i := 0; i < (n+1)/2; i++ {
		// Initial guess (Chebyshev-like) followed by Newton iterations on P_n.
		x := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var pp float64
		for iter := 0; iter < 100; iter++ {
			p0, p1 := 1.0, x
			for k := 2; k <= n; k++ {
				p0, p1 = p1, (float64((2*float64(k)-1)*x*p1)-float64((float64(k)-1)*p0))/float64(k)
			}
			// Derivative from the standard identity.
			pp = float64(n) * (float64(x*p1) - p0) / (float64(x*x) - 1)
			dx := p1 / pp
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		nodes[i] = -x
		nodes[n-1-i] = x
		w := 2 / ((1 - float64(x*x)) * pp * pp)
		weights[i] = w
		weights[n-1-i] = w
	}
	return nodes, weights
}

// ClenshawCurtis returns the n+1 nodes (in [-1,1], ascending) and weights of
// the (n+1)-point Clenshaw–Curtis rule on [-1,1].
func ClenshawCurtis(n int) (nodes, weights []float64) {
	if n == 0 {
		return []float64{0}, []float64{2}
	}
	m := n + 1
	nodes = make([]float64, m)
	weights = make([]float64, m)
	for j := 0; j <= n; j++ {
		nodes[j] = -math.Cos(math.Pi * float64(j) / float64(n))
	}
	// Exact weights by direct cosine sums (O(n^2), fine at patch orders).
	for j := 0; j <= n; j++ {
		theta := math.Pi * float64(j) / float64(n)
		var s float64
		for k := 1; k <= n/2; k++ {
			b := 2.0
			if 2*k == n {
				b = 1.0
			}
			s += b * math.Cos(2*float64(k)*theta) / float64(4*k*k-1)
		}
		w := (2.0 / float64(n)) * (1 - s)
		if j == 0 || j == n {
			w /= 2
		}
		weights[j] = w
	}
	return nodes, weights
}

// ChebyshevFirst returns the n Chebyshev points of the first kind (roots of
// T_n) in (-1,1), ascending. These avoid interval endpoints, which is what
// the black-box FMM needs for its equivalent sources.
func ChebyshevFirst(n int) []float64 {
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = -math.Cos(math.Pi * (2*float64(j) + 1) / (2 * float64(n)))
	}
	return x
}

// BaryWeights returns the barycentric weights for Lagrange interpolation on
// the node set x (distinct points).
func BaryWeights(x []float64) []float64 {
	n := len(x)
	w := make([]float64, n)
	for j := 0; j < n; j++ {
		p := 1.0
		for k := 0; k < n; k++ {
			if k != j {
				p *= x[j] - x[k]
			}
		}
		w[j] = 1 / p
	}
	// Rescale to avoid overflow for larger n.
	maxw := 0.0
	for _, v := range w {
		if a := math.Abs(v); a > maxw {
			maxw = a
		}
	}
	if maxw > 0 {
		for j := range w {
			w[j] /= maxw
		}
	}
	return w
}

// LagrangeCoeffs returns the interpolation coefficients c such that
// p(t) = Σ c[j] f(x[j]) for the polynomial interpolant through nodes x.
// w are the barycentric weights for x. Works for t inside or outside the
// node interval (the latter is polynomial extrapolation, paper Eq. 3.3).
func LagrangeCoeffs(x, w []float64, t float64) []float64 {
	c := make([]float64, len(x))
	LagrangeCoeffsInto(c, x, w, t)
	return c
}

// LagrangeCoeffsInto is LagrangeCoeffs writing into a caller-provided slice
// (len(c) == len(x)), for allocation-free inner loops such as the adaptive
// rim quadrature.
func LagrangeCoeffsInto(c, x, w []float64, t float64) {
	n := len(x)
	// Exact node hit.
	for j := 0; j < n; j++ {
		if t == x[j] {
			for k := range c[:n] {
				c[k] = 0
			}
			c[j] = 1
			return
		}
	}
	var denom float64
	for j := 0; j < n; j++ {
		c[j] = w[j] / (t - x[j])
		denom += c[j]
	}
	for j := 0; j < n; j++ {
		c[j] /= denom
	}
}

// DiffMatrix returns the (n x n) spectral differentiation matrix D for the
// node set x with barycentric weights w: (D f)[i] ≈ p'(x[i]) where p
// interpolates f.
func DiffMatrix(x, w []float64) [][]float64 {
	n := len(x)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		var diag float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d[i][j] = (w[j] / w[i]) / (x[i] - x[j])
			diag -= d[i][j]
		}
		d[i][i] = diag
	}
	return d
}

// EquispacedSamples returns n equispaced points spanning [-1,1] inclusive
// (used for collision-detection sample points on patches, paper §5.1).
func EquispacedSamples(n int) []float64 {
	if n == 1 {
		return []float64{0}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = -1 + 2*float64(i)/float64(n-1)
	}
	return x
}

// GradingRatio is the width ratio of consecutive panels of the
// edge-graded rim discretization: each panel of a ladder is half as wide as
// its neighbour away from the rim.
const GradingRatio = 0.5

// GradedBreakpoints returns the breakpoints of a dyadic panel ladder on
// [a, b] graded toward a: levels+1 panels whose widths shrink by
// GradingRatio toward the a end, the innermost panel having width
// (b-a)·GradingRatio^levels. This is the 1D generator of the edge-graded
// rim discretization: a panel family graded toward a cap/barrel rim lets
// piecewise polynomials resolve the corner singularity of the boundary
// density, and gives the near-singular quadrature rim-adjacent panels whose
// own length scale matches their distance to the corner. levels <= 0
// returns [a, b]. The product is rounded on its own, as in GaussLegendre.
func GradedBreakpoints(a, b float64, levels int) []float64 {
	if levels <= 0 {
		return []float64{a, b}
	}
	out := make([]float64, 0, levels+2)
	out = append(out, a)
	for k := levels; k >= 1; k-- {
		out = append(out, a+float64((b-a)*math.Pow(GradingRatio, float64(k))))
	}
	out = append(out, b)
	return out
}

// GradedSpanBreakpoints splits [a, b] into n uniform panels and replaces
// the first/last panel with a graded ladder of the given levels where the
// corresponding end borders a rim seam — the 1D skeleton shared by the
// swept-tube barrels of internal/network and the capped channels of
// internal/vessel. With both ends graded, n is raised to 2 if needed so
// the ladders stay disjoint.
func GradedSpanBreakpoints(a, b float64, n int, gradeLo, gradeHi bool, levels int) []float64 {
	if gradeLo && gradeHi && n < 2 {
		n = 2
	}
	if n < 1 {
		n = 1
	}
	uni := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		uni[i] = a + (b-a)*float64(i)/float64(n)
	}
	// appendHi appends the last panel's ladder graded toward uni[n] (the
	// descending toward-start ladder, reversed), skipping its first point
	// which is already in out.
	appendHi := func(out []float64) []float64 {
		tail := GradedBreakpoints(uni[n], uni[n-1], levels)
		for i := len(tail) - 2; i >= 0; i-- {
			out = append(out, tail[i])
		}
		return out
	}
	if n == 1 {
		switch {
		case gradeLo:
			return GradedBreakpoints(uni[0], uni[1], levels)
		case gradeHi:
			return appendHi([]float64{uni[0]})
		default:
			return uni
		}
	}
	var out []float64
	if gradeLo {
		out = append(out, GradedBreakpoints(uni[0], uni[1], levels)...)
	} else {
		out = append(out, uni[0], uni[1])
	}
	out = append(out, uni[2:n]...)
	if gradeHi {
		out = appendHi(out)
	} else {
		out = append(out, uni[n])
	}
	return out
}
