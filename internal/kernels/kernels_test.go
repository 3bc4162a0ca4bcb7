package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rbcflow/internal/sht"
)

// sphereQuad returns quadrature points, outward normals and weights for the
// unit sphere using the spherical-harmonic grid (exact for smooth fields).
func sphereQuad(p int) (pts, nrm [][3]float64, wts []float64) {
	g := sht.NewGrid(p)
	dphi := 2 * math.Pi / float64(g.Nlon)
	for i := 0; i < g.Nlat; i++ {
		st := math.Sin(g.Theta[i])
		ct := math.Cos(g.Theta[i])
		for j := 0; j < g.Nlon; j++ {
			x := [3]float64{st * math.Cos(g.Phi[j]), st * math.Sin(g.Phi[j]), ct}
			pts = append(pts, x)
			nrm = append(nrm, x)
			wts = append(wts, g.Wlat[i]*dphi) // dA = sinθ dθ dφ; GL in cosθ absorbs sinθ
		}
	}
	return pts, nrm, wts
}

func TestDoubleLayerIdentityInside(t *testing.T) {
	pts, nrm, wts := sphereQuad(32)
	phi := []float64{1, -2, 0.5}
	for _, x := range [][3]float64{{0, 0, 0}, {0.3, -0.2, 0.1}, {-0.5, 0.1, 0.4}} {
		var u [3]float64
		for i := range pts {
			DoubleLayerVel(u[:], x, pts[i], nrm[i], phi, wts[i])
		}
		for d := 0; d < 3; d++ {
			if math.Abs(u[d]-phi[d]) > 1e-6 {
				t.Fatalf("inside identity at %v: u=%v want %v", x, u, phi)
			}
		}
	}
}

func TestDoubleLayerIdentityOutside(t *testing.T) {
	pts, nrm, wts := sphereQuad(16)
	phi := []float64{1, -2, 0.5}
	for _, x := range [][3]float64{{2, 0, 0}, {0, -3, 1}, {1.8, 1.8, 1.8}} {
		var u [3]float64
		for i := range pts {
			DoubleLayerVel(u[:], x, pts[i], nrm[i], phi, wts[i])
		}
		for d := 0; d < 3; d++ {
			if math.Abs(u[d]) > 1e-6 {
				t.Fatalf("outside identity at %v: u=%v want 0", x, u)
			}
		}
	}
}

func TestTensorFormMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := StokesDoubleTensor{}
	for trial := 0; trial < 50; trial++ {
		x := [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y := [3]float64{rng.NormFloat64() + 3, rng.NormFloat64(), rng.NormFloat64()}
		n := [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		phi := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		w := rng.Float64() + 0.1

		var direct [3]float64
		DoubleLayerVel(direct[:], x, y, n, phi, w)

		q := make([]float64, 9)
		TensorStrength(q, phi, n, w)
		var tensor [3]float64
		k.Eval(tensor[:], x[0]-y[0], x[1]-y[1], x[2]-y[2], q)

		for d := 0; d < 3; d++ {
			if math.Abs(direct[d]-tensor[d]) > 1e-12*(1+math.Abs(direct[d])) {
				t.Fatalf("tensor form mismatch: %v vs %v", tensor, direct)
			}
		}
	}
}

func TestStokesletSymmetry(t *testing.T) {
	// S(x,y) is symmetric in x<->y (even in r) and symmetric as a matrix.
	k := Stokeslet{Mu: 1.3}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rx, ry, rz := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		if rx*rx+ry*ry+rz*rz < 1e-6 {
			return true
		}
		q := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		var a, b [3]float64
		k.Eval(a[:], rx, ry, rz, q)
		k.Eval(b[:], -rx, -ry, -rz, q)
		for d := 0; d < 3; d++ {
			if math.Abs(a[d]-b[d]) > 1e-12*(1+math.Abs(a[d])) {
				return false
			}
		}
		// Matrix symmetry: e_i · S e_j == e_j · S e_i.
		var col0, col1 [3]float64
		k.Eval(col0[:], rx, ry, rz, []float64{1, 0, 0})
		k.Eval(col1[:], rx, ry, rz, []float64{0, 1, 0})
		return math.Abs(col0[1]-col1[0]) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHomogeneityDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	kers := []Kernel{Stokeslet{Mu: 1}, StokesDoubleTensor{}, LaplaceSingle{}}
	for _, k := range kers {
		q := make([]float64, k.SrcDim())
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		rx, ry, rz := 0.7, -0.3, 0.5
		alpha := 2.0
		a := make([]float64, k.OutDim())
		b := make([]float64, k.OutDim())
		k.Eval(a, rx, ry, rz, q)
		k.Eval(b, alpha*rx, alpha*ry, alpha*rz, q)
		scale := math.Pow(alpha, k.Degree())
		for d := range a {
			if math.Abs(b[d]-scale*a[d]) > 1e-12*(1+math.Abs(a[d])) {
				t.Fatalf("%T: homogeneity violated: %v vs %v*%v", k, b[d], scale, a[d])
			}
		}
	}
}

func TestSelfInteractionIsZero(t *testing.T) {
	kers := []Kernel{Stokeslet{Mu: 1}, StokesDoubleTensor{}, LaplaceSingle{}}
	for _, k := range kers {
		q := make([]float64, k.SrcDim())
		for i := range q {
			q[i] = 1
		}
		dst := make([]float64, k.OutDim())
		k.Eval(dst, 0, 0, 0, q)
		for _, v := range dst {
			if v != 0 {
				t.Fatalf("%T: self interaction nonzero", k)
			}
		}
	}
}

func TestStokesletDivergenceFree(t *testing.T) {
	// ∇·u = 0 for the Stokeslet field away from the source (finite diff).
	k := Stokeslet{Mu: 1}
	q := []float64{1, 2, -0.5}
	h := 1e-5
	at := func(x, y, z float64) [3]float64 {
		var u [3]float64
		k.Eval(u[:], x, y, z, q)
		return u
	}
	x0, y0, z0 := 0.8, -0.4, 0.6
	div := (at(x0+h, y0, z0)[0]-at(x0-h, y0, z0)[0])/(2*h) +
		(at(x0, y0+h, z0)[1]-at(x0, y0-h, z0)[1])/(2*h) +
		(at(x0, y0, z0+h)[2]-at(x0, y0, z0-h)[2])/(2*h)
	if math.Abs(div) > 1e-6 {
		t.Fatalf("Stokeslet divergence %v", div)
	}
}

func TestLaplaceSphereEigenvalue(t *testing.T) {
	// Single-layer on unit sphere: ∫ Y_n / (4π|x−y|) dS = Y_n(x)/(2n+1).
	// Use Y_1 ~ cosθ = z: expect u(x) = z/3 on the surface... but on-surface
	// needs singular quadrature; test at an interior point where the smooth
	// rule applies: for x inside, ∫ z_y/(4π|x−y|) dS_y = z_x/3 · ... known
	// expansion: single layer of solid harmonic r^n Y_n gives (r^n Y_n)/(2n+1)
	// inside (for unit sphere). Check numerically at x = (0, 0, 0.4).
	pts, _, wts := sphereQuad(24)
	x := [3]float64{0, 0, 0.4}
	var u float64
	for i := range pts {
		var out [1]float64
		LaplaceSingle{}.Eval(out[:], x[0]-pts[i][0], x[1]-pts[i][1], x[2]-pts[i][2], []float64{pts[i][2] * wts[i]})
		u += out[0]
	}
	want := 0.4 / 3.0
	if math.Abs(u-want) > 1e-8 {
		t.Fatalf("Laplace sphere harmonic: got %v want %v", u, want)
	}
}

func TestLaplaceDoubleInsideOutside(t *testing.T) {
	pts, nrm, wts := sphereQuad(24)
	eval := func(x [3]float64) float64 {
		var u [1]float64
		for i := range pts {
			q := []float64{nrm[i][0] * wts[i], nrm[i][1] * wts[i], nrm[i][2] * wts[i]}
			LaplaceDouble{}.Eval(u[:], x[0]-pts[i][0], x[1]-pts[i][1], x[2]-pts[i][2], q)
		}
		return u[0]
	}
	if v := eval([3]float64{0.2, -0.1, 0.3}); math.Abs(v-1) > 1e-8 {
		t.Fatalf("inside indicator %v want 1", v)
	}
	if v := eval([3]float64{2, 1, 0}); math.Abs(v) > 1e-8 {
		t.Fatalf("outside indicator %v want 0", v)
	}
}

func TestEvalBlockMatchesEvalBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []Kernel{Stokeslet{Mu: 1.7}, StokesDoubleTensor{}, LaplaceSingle{}, LaplaceDouble{}} {
		const ns, nt = 67, 41
		src := make([][3]float64, ns)
		for i := range src {
			src[i] = [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		trg := make([][3]float64, nt)
		for i := range trg {
			trg[i] = [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		// Coincident pairs (the r = 0 skip), first, middle and last source.
		trg[0], trg[5], trg[nt-1] = src[0], src[ns/2], src[ns-1]
		q := make([]float64, ns*k.SrcDim())
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		want := make([]float64, nt*k.OutDim())
		got := make([]float64, nt*k.OutDim())
		for i := range want {
			// EvalBlock accumulates: start both from the same nonzero values.
			want[i] = rng.NormFloat64()
			got[i] = want[i]
		}
		// Reference: per-pair Eval over the sources in order, straight into dst.
		evalPairs(k, want, trg, src, q)
		k.EvalBlock(got, trg, src, q)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%T: component %d: block %v, per-pair %v", k, i, got[i], want[i])
			}
		}
	}
}

func benchPairs(b *testing.B, k Kernel, block bool) {
	rng := rand.New(rand.NewSource(3))
	const n = 512
	src := make([][3]float64, n)
	trg := make([][3]float64, n)
	for i := range src {
		src[i] = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
		trg[i] = [3]float64{rng.Float64() + 2, rng.Float64(), rng.Float64()}
	}
	q := make([]float64, n*k.SrcDim())
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	dst := make([]float64, n*k.OutDim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if block {
			k.EvalBlock(dst, trg, src, q)
		} else {
			evalPairs(k, dst, trg, src, q)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(n*n), "ns/pair")
}

func BenchmarkStokesletPairs(b *testing.B)   { benchPairs(b, Stokeslet{Mu: 1}, false) }
func BenchmarkStokesletBlock(b *testing.B)   { benchPairs(b, Stokeslet{Mu: 1}, true) }
func BenchmarkDoubleLayerPairs(b *testing.B) { benchPairs(b, StokesDoubleTensor{}, false) }
func BenchmarkDoubleLayerBlock(b *testing.B) { benchPairs(b, StokesDoubleTensor{}, true) }
