package sht

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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
	g.Synthesize(c, Fields{T: dth, P: dph}, g.NewWork())
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

// inverseRef is the unfused inverse that Synthesize replaced: one
// transform per field, the Legendre sums on the table given, the cos and
// sin of every mode recomputed, and ∂φφ through −m²-scaled coefficients.
// It is the bit reference of Synthesize.
func inverseRef(g *Grid, c *Coeffs, out []float64, plmTab [][]float64, dphi bool) {
	half := g.Nlon / 2
	cm := make([]float64, half+1)
	sm := make([]float64, half+1)
	for i := 0; i < g.Nlat; i++ {
		plm := plmTab[i]
		for m := 0; m <= half; m++ {
			cm[m], sm[m] = 0, 0
		}
		for n := 0; n <= g.P; n++ {
			base := n * (n + 1) / 2
			cm[0] += float64(sqrt2PiInv * plm[base] * c.A[base])
			for m := 1; m <= n; m++ {
				v := sqrtPiInv * plm[base+m]
				cm[m] += float64(v * c.A[base+m])
				sm[m] += float64(v * c.B[base+m])
			}
		}
		for j := 0; j < g.Nlon; j++ {
			var s float64
			if dphi {
				for m := 1; m <= half; m++ {
					fm := float64(m)
					s += float64(-fm*cm[m]*math.Sin(float64(m)*g.Phi[j])) + float64(fm*sm[m]*math.Cos(float64(m)*g.Phi[j]))
				}
			} else {
				s = cm[0]
				for m := 1; m <= half; m++ {
					s += float64(cm[m]*math.Cos(float64(m)*g.Phi[j])) + float64(sm[m]*math.Sin(float64(m)*g.Phi[j]))
				}
			}
			out[i*g.Nlon+j] = s
		}
	}
}

// legendreTables returns P̄, dP̄/dθ and d²P̄/dθ² at the grid's latitudes, as
// the grid once stored them.
func legendreTables(g *Grid) (plm, dplm, d2plm [][]float64) {
	nc := NumCoeffs(g.P)
	for i := 0; i < g.Nlat; i++ {
		p, d, d2 := make([]float64, nc), make([]float64, nc), make([]float64, nc)
		NormalizedLegendre(g.P, g.X[i], p)
		NormalizedLegendreDTheta(g.P, g.X[i], p, d)
		st := math.Sqrt(1 - float64(g.X[i]*g.X[i]))
		cot := g.X[i] / st
		for n := 0; n <= g.P; n++ {
			for m := 0; m <= n; m++ {
				idx := CoeffIndex(n, m)
				fm, fn := float64(m), float64(n)
				d2[idx] = float64(-cot*d[idx]) + float64((fm*fm/(st*st)-float64(fn*(fn+1)))*p[idx])
			}
		}
		plm, dplm, d2plm = append(plm, p), append(dplm, d), append(d2plm, d2)
	}
	return plm, dplm, d2plm
}

// Every field of Synthesize, alone or together with the others, has the
// bits of the unfused per-field inverse, on both DFT paths (odd and even
// orders); and PoleValues has the bits of EvalAt at the poles.
func TestSynthesizeMatchesUnfusedInverse(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 6, 8, 9, 16} {
		g := NewGrid(p)
		c := randomBandLimited(p, rand.New(rand.NewSource(int64(60+p))))
		c.A[CoeffIndex(p/2, 0)] = math.Copysign(0, -1)
		plm, dplm, d2plm := legendreTables(g)
		n := g.NumPoints()
		d2phi := c.Copy()
		for nn := 0; nn <= p; nn++ {
			for m := 0; m <= nn; m++ {
				fm := float64(m)
				d2phi.A[CoeffIndex(nn, m)] = -fm * fm * c.A[CoeffIndex(nn, m)]
				d2phi.B[CoeffIndex(nn, m)] = -fm * fm * c.B[CoeffIndex(nn, m)]
			}
		}
		want := make([][]float64, 6)
		for k := range want {
			want[k] = make([]float64, n)
		}
		inverseRef(g, c, want[0], plm, false)
		inverseRef(g, c, want[1], dplm, false)
		inverseRef(g, c, want[2], plm, true)
		inverseRef(g, d2phi, want[5], plm, false)
		inverseRef(g, c, want[3], d2plm, false)
		inverseRef(g, c, want[4], dplm, true)
		names := []string{"f", "θ", "φ", "θθ", "θφ", "φφ"}
		fields := func(got [][]float64, only int) Fields {
			pick := func(k int) []float64 {
				if only >= 0 && only != k {
					return nil
				}
				return got[k]
			}
			return Fields{F: pick(0), T: pick(1), P: pick(2), TT: pick(3), TP: pick(4), PP: pick(5)}
		}
		w := g.NewWork()
		for only := -1; only < 6; only++ {
			got := make([][]float64, 6)
			for k := range got {
				got[k] = make([]float64, n)
			}
			g.Synthesize(c, fields(got, only), w)
			for k := range want {
				if only >= 0 && only != k {
					continue
				}
				for i := range want[k] {
					if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
						t.Fatalf("p=%d field %s (alone %v) at %d: %v, unfused %v", p, names[k], only >= 0, i, got[k][i], want[k][i])
					}
				}
			}
		}
		north, south := g.PoleValues(c)
		if en, es := EvalAt(c, 0, 0), EvalAt(c, math.Pi, 0); math.Float64bits(north) != math.Float64bits(en) || math.Float64bits(south) != math.Float64bits(es) {
			t.Fatalf("p=%d: poles (%v, %v), EvalAt (%v, %v)", p, north, south, en, es)
		}
	}
}

// The workspace forms of the transforms allocate nothing.
func TestTransformsDoNotAllocate(t *testing.T) {
	for _, p := range []int{3, 4} {
		g := NewGrid(p)
		vals := make([]float64, g.NumPoints())
		for i := range vals {
			vals[i] = math.Sin(float64(i))
		}
		c, w := NewCoeffs(p), g.NewWork()
		out := make([][]float64, 6)
		for k := range out {
			out[k] = make([]float64, g.NumPoints())
		}
		allocs := testing.AllocsPerRun(10, func() {
			g.ForwardInto(vals, c, w)
			g.Synthesize(c, Fields{F: out[0], T: out[1], P: out[2], TT: out[3], TP: out[4], PP: out[5]}, w)
			g.PoleValues(c)
		})
		if allocs != 0 {
			t.Fatalf("p=%d: %v allocations per forward and synthesis, want 0", p, allocs)
		}
	}
}

// One Grid serves concurrent transforms, each goroutine with its own Work:
// the grid holds nothing they write (run under -race in CI).
func TestGridServesConcurrentTransforms(t *testing.T) {
	g := NewGrid(6)
	vals := make([]float64, g.NumPoints())
	for i := range vals {
		vals[i] = math.Cos(0.3 * float64(i))
	}
	transform := func() []float64 {
		c, w, out := NewCoeffs(g.P), g.NewWork(), make([]float64, 2*g.NumPoints())
		g.ForwardInto(vals, c, w)
		g.Synthesize(c, Fields{TP: out[:g.NumPoints()], PP: out[g.NumPoints():]}, w)
		return out
	}
	want := transform()
	var wg sync.WaitGroup
	got := make([][]float64, 4)
	for r := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got[r] = transform()
			}
		}()
	}
	wg.Wait()
	for r := range got {
		for i := range want {
			if math.Float64bits(got[r][i]) != math.Float64bits(want[i]) {
				t.Fatalf("goroutine %d, value %d: %v, serial %v", r, i, got[r][i], want[i])
			}
		}
	}
}

// BenchmarkSynthesize times the six fields of one expansion at orders 4
// and 8, and one forward transform.
func BenchmarkSynthesize(b *testing.B) {
	for _, p := range []int{4, 8} {
		g := NewGrid(p)
		c, w := randomBandLimited(p, rand.New(rand.NewSource(1))), g.NewWork()
		out := make([][]float64, 6)
		for k := range out {
			out[k] = make([]float64, g.NumPoints())
		}
		b.Run(fmt.Sprintf("fields/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.Synthesize(c, Fields{F: out[0], T: out[1], P: out[2], TT: out[3], TP: out[4], PP: out[5]}, w)
			}
		})
		b.Run(fmt.Sprintf("forward/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.ForwardInto(out[0], c, w)
			}
		})
	}
}
