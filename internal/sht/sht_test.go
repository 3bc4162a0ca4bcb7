package sht

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalizedLegendreOrthonormal(t *testing.T) {
	// ∫ P̄_n^m P̄_n'^m dx = δ_{nn'} via Gauss-Legendre quadrature.
	p := 8
	g := NewGrid(p + 2) // enough quadrature accuracy
	nc := NumCoeffs(p)
	for m := 0; m <= p; m++ {
		for n := m; n <= p; n++ {
			for n2 := m; n2 <= p; n2++ {
				var s float64
				for i := 0; i < g.Nlat; i++ {
					plm := make([]float64, nc)
					NormalizedLegendre(p, g.X[i], plm)
					s += g.Wlat[i] * plm[CoeffIndex(n, m)] * plm[CoeffIndex(n2, m)]
				}
				want := 0.0
				if n == n2 {
					want = 1
				}
				if math.Abs(s-want) > 1e-10 {
					t.Fatalf("orthonormality (n=%d,n'=%d,m=%d): %v", n, n2, m, s)
				}
			}
		}
	}
}

func TestLegendreDThetaFiniteDifference(t *testing.T) {
	p := 10
	x0 := 0.37
	h := 1e-6
	theta0 := math.Acos(x0)
	nc := NumCoeffs(p)
	plm := make([]float64, nc)
	dplm := make([]float64, nc)
	plmP := make([]float64, nc)
	plmM := make([]float64, nc)
	NormalizedLegendre(p, x0, plm)
	NormalizedLegendreDTheta(p, x0, plm, dplm)
	NormalizedLegendre(p, math.Cos(theta0+h), plmP)
	NormalizedLegendre(p, math.Cos(theta0-h), plmM)
	for n := 0; n <= p; n++ {
		for m := 0; m <= n; m++ {
			idx := CoeffIndex(n, m)
			fd := (plmP[idx] - plmM[idx]) / (2 * h)
			if math.Abs(fd-dplm[idx]) > 1e-5*(1+math.Abs(fd)) {
				t.Fatalf("dP/dθ mismatch (n=%d,m=%d): analytic %v fd %v", n, m, dplm[idx], fd)
			}
		}
	}
}

func randomBandLimited(p int, rng *rand.Rand) *Coeffs {
	c := NewCoeffs(p)
	for n := 0; n <= p; n++ {
		for m := 0; m <= n; m++ {
			idx := CoeffIndex(n, m)
			c.A[idx] = rng.NormFloat64()
			if m > 0 {
				c.B[idx] = rng.NormFloat64()
			}
		}
	}
	// The sin(pφ) Nyquist modes are invisible on the 2p-point longitude grid;
	// zero them so roundtrip is exact (standard dropped-mode convention).
	half := p // Nlon/2 = p
	for n := half; n <= p; n++ {
		if half <= n {
			c.B[CoeffIndex(n, half)] = 0
		}
	}
	return c
}

func TestForwardInverseRoundTrip(t *testing.T) {
	for _, p := range []int{4, 8, 16} {
		g := NewGrid(p)
		rng := rand.New(rand.NewSource(int64(p)))
		c := randomBandLimited(p, rng)
		vals := make([]float64, g.NumPoints())
		g.Inverse(c, vals)
		c2 := g.Forward(vals)
		for i := range c.A {
			if math.Abs(c.A[i]-c2.A[i]) > 1e-10 {
				t.Fatalf("p=%d: A[%d] %v vs %v", p, i, c.A[i], c2.A[i])
			}
			if math.Abs(c.B[i]-c2.B[i]) > 1e-10 {
				t.Fatalf("p=%d: B[%d] %v vs %v", p, i, c.B[i], c2.B[i])
			}
		}
	}
}

func TestInverseForwardOnGridFunction(t *testing.T) {
	// Sample a smooth non-bandlimited function, roundtrip values -> coeffs ->
	// values must reproduce the *projection*; applying twice is idempotent.
	p := 16
	g := NewGrid(p)
	vals := make([]float64, g.NumPoints())
	for i := 0; i < g.Nlat; i++ {
		for j := 0; j < g.Nlon; j++ {
			vals[g.Index(i, j)] = math.Exp(math.Sin(g.Theta[i])*math.Cos(g.Phi[j])) * math.Cos(g.Theta[i])
		}
	}
	c := g.Forward(vals)
	v1 := make([]float64, g.NumPoints())
	g.Inverse(c, v1)
	c2 := g.Forward(v1)
	v2 := make([]float64, g.NumPoints())
	g.Inverse(c2, v2)
	for i := range v1 {
		if math.Abs(v1[i]-v2[i]) > 1e-9 {
			t.Fatalf("projection not idempotent at %d: %v vs %v", i, v1[i], v2[i])
		}
	}
}

func TestDerivativesSphericalHarmonic(t *testing.T) {
	// f = Y_2^1-like: P̄_2^1(cosθ) cos φ / √π. Check θ- and φ-derivatives
	// against finite differences of EvalAt.
	p := 8
	g := NewGrid(p)
	c := NewCoeffs(p)
	c.A[CoeffIndex(2, 1)] = 1.3
	c.B[CoeffIndex(3, 2)] = -0.7
	dth := make([]float64, g.NumPoints())
	dph := make([]float64, g.NumPoints())
	g.InverseDTheta(c, dth)
	g.InverseDPhi(c, dph)
	h := 1e-6
	for _, idx := range []int{0, 5, g.NumPoints() / 2, g.NumPoints() - 1} {
		i, j := idx/g.Nlon, idx%g.Nlon
		th, ph := g.Theta[i], g.Phi[j]
		fdTh := (EvalAt(c, th+h, ph) - EvalAt(c, th-h, ph)) / (2 * h)
		fdPh := (EvalAt(c, th, ph+h) - EvalAt(c, th, ph-h)) / (2 * h)
		if math.Abs(fdTh-dth[idx]) > 1e-5 {
			t.Fatalf("dθ mismatch at %d: %v vs %v", idx, dth[idx], fdTh)
		}
		if math.Abs(fdPh-dph[idx]) > 1e-5 {
			t.Fatalf("dφ mismatch at %d: %v vs %v", idx, dph[idx], fdPh)
		}
	}
}

func TestEvalAtMatchesGrid(t *testing.T) {
	p := 8
	g := NewGrid(p)
	rng := rand.New(rand.NewSource(4))
	c := randomBandLimited(p, rng)
	vals := make([]float64, g.NumPoints())
	g.Inverse(c, vals)
	for _, idx := range []int{0, 7, 33, g.NumPoints() - 1} {
		i, j := idx/g.Nlon, idx%g.Nlon
		got := EvalAt(c, g.Theta[i], g.Phi[j])
		if math.Abs(got-vals[idx]) > 1e-10 {
			t.Fatalf("EvalAt mismatch at %d: %v vs %v", idx, got, vals[idx])
		}
	}
}

func TestIntegrateConstants(t *testing.T) {
	g := NewGrid(8)
	ones := make([]float64, g.NumPoints())
	for i := range ones {
		ones[i] = 1
	}
	if got := g.Integrate(ones); math.Abs(got-4*math.Pi) > 1e-10 {
		t.Fatalf("∫1 dΩ = %v, want 4π", got)
	}
	// ∫ cos²θ over sphere = 4π/3.
	vals := make([]float64, g.NumPoints())
	for i := 0; i < g.Nlat; i++ {
		for j := 0; j < g.Nlon; j++ {
			vals[g.Index(i, j)] = g.X[i] * g.X[i]
		}
	}
	if got := g.Integrate(vals); math.Abs(got-4*math.Pi/3) > 1e-10 {
		t.Fatalf("∫cos²θ = %v, want 4π/3", got)
	}
}

func TestResampleUpDown(t *testing.T) {
	p := 6
	rng := rand.New(rand.NewSource(9))
	c := randomBandLimited(p, rng)
	up := Resample(c, 12)
	down := Resample(up, p)
	for i := range c.A {
		if c.A[i] != down.A[i] || c.B[i] != down.B[i] {
			t.Fatalf("resample roundtrip mismatch at %d", i)
		}
	}
	// Upsampled field matches on the coarse points.
	gUp := NewGrid(12)
	valsUp := make([]float64, gUp.NumPoints())
	gUp.Inverse(up, valsUp)
	g := NewGrid(p)
	for i := 0; i < 3; i++ {
		th, ph := g.Theta[i], g.Phi[2*i]
		a := EvalAt(c, th, ph)
		b := EvalAt(up, th, ph)
		if math.Abs(a-b) > 1e-11 {
			t.Fatalf("upsampled eval mismatch: %v vs %v", a, b)
		}
	}
}

func TestFilterAndLaplace(t *testing.T) {
	p := 6
	c := NewCoeffs(p)
	c.A[CoeffIndex(3, 2)] = 2
	lap := laplaceBeltramiSphere(c)
	if got := lap.A[CoeffIndex(3, 2)]; got != -12*2 {
		t.Fatalf("Laplace eigenvalue: got %v want %v", got, -24.0)
	}
	c.filter(func(n int) float64 {
		if n >= 3 {
			return 0
		}
		return 1
	})
	if c.A[CoeffIndex(3, 2)] != 0 {
		t.Fatal("filter did not zero high band")
	}
}

// Property: Forward is linear.
func TestQuickForwardLinearity(t *testing.T) {
	p := 4
	g := NewGrid(p)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := make([]float64, g.NumPoints())
		v := make([]float64, g.NumPoints())
		for i := range u {
			u[i] = rng.NormFloat64()
			v[i] = rng.NormFloat64()
		}
		alpha := rng.NormFloat64()
		sum := make([]float64, len(u))
		for i := range sum {
			sum[i] = u[i] + alpha*v[i]
		}
		cs := g.Forward(sum)
		cu := g.Forward(u)
		cv := g.Forward(v)
		for i := range cs.A {
			if math.Abs(cs.A[i]-(cu.A[i]+alpha*cv.A[i])) > 1e-10 {
				return false
			}
			if math.Abs(cs.B[i]-(cu.B[i]+alpha*cv.B[i])) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parseval-like identity — ∫ f² dΩ equals Σ coeff² for
// band-limited f (orthonormal basis). f² has modes up to 2p, so the integral
// is evaluated on a grid of order 2p+1 where it is exact.
func TestQuickParseval(t *testing.T) {
	p := 6
	g := NewGrid(2*p + 1)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomBandLimited(p, rng)
		vals := make([]float64, g.NumPoints())
		g.Inverse(c, vals)
		sq := make([]float64, len(vals))
		for i, v := range vals {
			sq[i] = v * v
		}
		intF2 := g.Integrate(sq)
		var sum float64
		for i := range c.A {
			sum += c.A[i]*c.A[i] + c.B[i]*c.B[i]
		}
		return math.Abs(intF2-sum) < 1e-8*(1+sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// laplaceBeltramiSphere applies the spherical Laplace–Beltrami operator in
// coefficient space: each degree-n band is scaled by -n(n+1).
func laplaceBeltramiSphere(c *Coeffs) *Coeffs {
	out := c.Copy()
	out.filter(func(n int) float64 { return -float64(n * (n + 1)) })
	return out
}

// filter scales each degree-n band of c by gain(n) in place.
func (c *Coeffs) filter(gain func(n int) float64) {
	for n := 0; n <= c.P; n++ {
		gn := gain(n)
		for m := 0; m <= n; m++ {
			idx := CoeffIndex(n, m)
			c.A[idx] *= gn
			c.B[idx] *= gn
		}
	}
}
