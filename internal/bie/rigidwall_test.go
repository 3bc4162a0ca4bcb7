package bie

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rbcflow/internal/fmm"
	"rbcflow/internal/forest"
	"rbcflow/internal/kernels"
	"rbcflow/internal/par"
	"rbcflow/internal/patch"
	"rbcflow/internal/telemetry"
)

// torusSurface is the level-0 torus channel of the scenario registry (6×4
// patches, R = 3, r = 1) at the light discretization: 600 nodes.
func torusSurface() *Surface {
	const nu, nv, R, r = 6, 4, 3.0, 1.0
	var roots []*patch.Patch
	for a := 0; a < nu; a++ {
		for b := 0; b < nv; b++ {
			a0, b0 := 2*math.Pi*float64(a)/nu, 2*math.Pi*float64(b)/nv
			roots = append(roots, patch.FromFunc(8, func(u, v float64) [3]float64 {
				th := a0 + (u+1)*math.Pi/nu
				ps := b0 + (v+1)*math.Pi/nv
				rho := R + r*math.Cos(ps)
				return [3]float64{rho * math.Cos(th), rho * math.Sin(th), r * math.Sin(ps)}
			}))
		}
	}
	return NewSurface(forest.NewUniform(roots, 0), lightParams())
}

// capsuleSurface is the sedimentation capsule: a cubed sphere of radius 2.2
// stretched by 1.3 along z. 150 nodes.
func capsuleSurface() *Surface {
	return NewSurface(stretchedCubeSphere(8, 2.2, [3]float64{1, 1, 1.3}, 0), lightParams())
}

// tensorStrengths is Apply's source assembly for nodes [lo, hi).
func tensorStrengths(s *Surface, phi []float64, lo, hi int) []float64 {
	q := make([]float64, 9*(hi-lo))
	for g := lo; g < hi; g++ {
		kernels.TensorStrength(q[9*(g-lo):9*(g-lo)+9], phi[3*g:3*g+3], s.Nrm[g], s.W[g])
	}
	return q
}

// resummedFar is the far field as it was before the stored operator: Rigid
// is ignored and every sum goes through the direct evaluator.
type resummedFar struct{ FarField }

func (resummedFar) Rigid(*par.Comm, [][3]float64, [][3]float64, int, int) {}

// TestRigidWallMatchesDirect: the stored scalar operator is the tensor
// kernel's direct sum — on the backend's own inputs to 1e-13, and through
// Apply to 1e-12 — on the torus and the capsule with a random density.
func TestRigidWallMatchesDirect(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func() *Surface
	}{{"torus", torusSurface}, {"capsule", capsuleSurface}} {
		s := tc.make()
		n := len(s.Pts)
		phi := randomDensity(3*n, 41)
		q := tensorStrengths(s, phi, 0, n)
		want := fmm.NewEvaluator(fmm.Config{Kernel: kernels.StokesDoubleTensor{}, DirectBelow: 1 << 62}).Direct(s.Pts, q, s.Pts)
		plan := BuildQuadPlan(s, 2)
		par.Run(1, par.SKX(), func(c *par.Comm) {
			far := FMMFarField(FMMConfig{})
			far.Rigid(c, s.Pts, s.Nrm, 0, n)
			got := far.Evaluate(c, s.Pts, q, s.Pts)
			if d := fmm.RelativeError(got, want); d > 1e-13 {
				t.Errorf("%s: stored sum differs from fmm.Direct by %.3g", tc.name, d)
			}
			stored := NewWallOperator(c, s, WithPlan(plan)).Apply(c, phi)
			resummed := NewWallOperator(c, s, WithPlan(plan), WithFarField(resummedFar{DirectFarField()})).Apply(c, phi)
			if d := fmm.RelativeError(stored, resummed); d > 1e-12 {
				t.Errorf("%s: Apply on the stored operator differs from the re-summed one by %.3g", tc.name, d)
			}
		})
	}
}

// rowMajorRigidWall is the layout the four-row blocks replaced, kept as
// their reference: G row-major, N × N, built one row at a time.
func rowMajorRigidWall(pts, nrm [][3]float64) []float64 {
	g := make([]float64, len(pts)*len(pts))
	for t, x := range pts {
		row := g[t*len(pts) : (t+1)*len(pts)]
		for s, y := range pts {
			rx, ry, rz := x[0]-y[0], x[1]-y[1], x[2]-y[2]
			r2 := float64(rx*rx) + float64(ry*ry) + float64(rz*rz)
			if r2 == 0 {
				continue
			}
			inv := 1 / math.Sqrt(r2)
			n := nrm[s]
			row[s] = -3 / (4 * math.Pi) * (inv * inv * inv * inv * inv) * (float64(rx*n[0]) + float64(ry*n[1]) + float64(rz*n[2]))
		}
	}
	return g
}

// rowMajorApply is the product on the row-major layout at one rank: two
// target rows per pass over the sources, an odd tail running its last row in
// both slots, every row summing the sources in node order.
func rowMajorApply(pts, nrm [][3]float64, g, srcQ []float64) []float64 {
	rows := len(pts)
	fAll := make([]float64, 3*rows)
	for k, n := range nrm {
		q := srcQ[9*k : 9*k+9 : 9*k+9]
		fAll[3*k] = q[0]*n[0] + q[1]*n[1] + q[2]*n[2]
		fAll[3*k+1] = q[3]*n[0] + q[4]*n[1] + q[5]*n[2]
		fAll[3*k+2] = q[6]*n[0] + q[7]*n[1] + q[8]*n[2]
	}
	out := make([]float64, 3*rows)
	for t := 0; t < rows; t += 2 {
		u := min(t+1, rows-1)
		x, z := pts[t], pts[u]
		gx := g[t*len(pts) : (t+1)*len(pts)]
		gz := g[u*len(pts) : (u+1)*len(pts)]
		var a0, a1, a2, b0, b1, b2 float64
		for s, y := range pts {
			fs := fAll[3*s : 3*s+3 : 3*s+3]
			rx, ry, rz := x[0]-y[0], x[1]-y[1], x[2]-y[2]
			v := gx[s] * (float64(rx*fs[0]) + float64(ry*fs[1]) + float64(rz*fs[2]))
			a0 += float64(v * rx)
			a1 += float64(v * ry)
			a2 += float64(v * rz)
			rx, ry, rz = z[0]-y[0], z[1]-y[1], z[2]-y[2]
			v = gz[s] * (float64(rx*fs[0]) + float64(ry*fs[1]) + float64(rz*fs[2]))
			b0 += float64(v * rx)
			b1 += float64(v * ry)
			b2 += float64(v * rz)
		}
		out[3*t], out[3*t+1], out[3*t+2] = a0, a1, a2
		out[3*u], out[3*u+1], out[3*u+2] = b0, b1, b2
	}
	return out
}

// applyAt is the stored product of the whole wall at one rank on procs
// cores, summed by block.
func applyAt(procs int, w *rigidWall, q []float64, block func(g, y, f []float64, x, acc *[12]float64)) []float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var out []float64
	par.Run(1, par.SKX(), func(c *par.Comm) { out = w.apply(c, q, block) })
	return out
}

// checkRigidWallLayout: on s's whole wall, every stored G is the row-major
// value to the bit, the padding is zero, and the product on the four-row
// blocks — this machine's kernel and the portable loop — is the row-major
// product to the bit.
func checkRigidWallLayout(t *testing.T, s *Surface) {
	t.Helper()
	n := len(s.Pts)
	ref := rowMajorRigidWall(s.Pts, s.Nrm)
	w := newRigidWall(s.Pts, s.Nrm, 0, n)
	for i, v := range w.g {
		b, src, l := i/(4*n), i/4%n, i%4
		want := 0.0
		if row := 4*b + l; row < n {
			want = ref[row*n+src]
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("G(row %d, node %d) = %x, row-major %x", 4*b+l, src, v, want)
		}
	}
	q := tensorStrengths(s, randomDensity(3*n, 46), 0, n)
	want := rowMajorApply(s.Pts, s.Nrm, ref, q)
	sameBits(t, "this machine's kernel", applyAt(2, w, q, rigidWallBlock), want)
	sameBits(t, "portable loop", applyAt(2, w, q, rigidWallBlockGo), want)
}

// TestRigidWallLayoutMatchesRowMajor: the four-row blocks hold the row-major
// operator and sum it to the same bits, on the light torus and the capsule.
// The registered walls are checked from the external test package.
func TestRigidWallLayoutMatchesRowMajor(t *testing.T) {
	checkRigidWallLayout(t, torusSurface())
	checkRigidWallLayout(t, capsuleSurface())
}

// signedZeros replaces about one value in eight by +0 or −0.
func signedZeros(rng *rand.Rand, v []float64) {
	for i := range v {
		switch rng.Intn(16) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		}
	}
}

// kernelWall is a random n-node wall with signed zeros among its
// coordinates, normals and strengths and, from n = 2 on, two coincident
// nodes (a pair with G = 0).
func kernelWall(n int, seed int64) (pts, nrm [][3]float64, q []float64) {
	rng := rand.New(rand.NewSource(seed))
	pts, nrm = make([][3]float64, n), make([][3]float64, n)
	for i := range pts {
		for k := 0; k < 3; k++ {
			pts[i][k] = 2*rng.Float64() - 1
			nrm[i][k] = rng.NormFloat64()
		}
		signedZeros(rng, pts[i][:])
		signedZeros(rng, nrm[i][:])
		if l := math.Sqrt(nrm[i][0]*nrm[i][0] + nrm[i][1]*nrm[i][1] + nrm[i][2]*nrm[i][2]); l > 0 {
			nrm[i] = [3]float64{nrm[i][0] / l, nrm[i][1] / l, nrm[i][2] / l}
		}
	}
	if n > 1 {
		pts[n-1] = pts[0]
	}
	q = make([]float64, 9*n)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	signedZeros(rng, q)
	return pts, nrm, q
}

// TestRigidWallKernelBitIdentical: the AVX2 kernel is the portable loop to
// the bit — per block on random operators, targets, nodes and strengths with
// signed zeros, and through the whole product at N = 1 … 9, 33 and 1176 (so
// every row count mod 4) on one core and on four.
func TestRigidWallKernelBitIdentical(t *testing.T) {
	if !useAVX2 {
		t.Skip("this CPU has no AVX2: the portable loop is the only kernel")
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 1176} {
		rng := rand.New(rand.NewSource(int64(n)))
		g, y, f := make([]float64, 4*n), make([]float64, 3*n), make([]float64, 3*n)
		var x, want, got [12]float64
		for _, v := range [][]float64{g, y, f, x[:]} {
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			signedZeros(rng, v)
		}
		rigidWallBlockGo(g, y, f, &x, &want)
		rigidWallBlockAVX2(g, y, f, &x, &got)
		sameBits(t, fmt.Sprintf("N=%d block", n), got[:], want[:])

		pts, nrm, q := kernelWall(n, int64(n))
		w := newRigidWall(pts, nrm, 0, n)
		ref := applyAt(1, w, q, rigidWallBlockGo)
		for _, procs := range []int{1, 4} {
			sameBits(t, fmt.Sprintf("N=%d GOMAXPROCS=%d", n, procs), applyAt(procs, w, q, rigidWallBlockAVX2), ref)
		}
	}
}

// TestRigidWallRowsAcrossRanks: the operator is row-partitioned and every
// row sums the allgathered strengths in node order, so the gathered rows are
// the same bits at 1, 2, 3, 4 and 5 ranks (at 5 the ranks' row ranges are
// not multiples of 4, so blocks start mid-patch and end padded) and on one
// core and on four.
func TestRigidWallRowsAcrossRanks(t *testing.T) {
	s := torusSurface()
	phi := randomDensity(s.NumUnknowns(), 42)
	rowsAt := func(procs, ranks int) []float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var rows []float64
		par.Run(ranks, par.SKX(), func(c *par.Comm) {
			far := FMMFarField(FMMConfig{})
			p0, p1 := s.F.OwnerRange(c.Size(), c.Rank())
			lo, hi := p0*s.NQ, p1*s.NQ
			far.Rigid(c, s.Pts, s.Nrm, lo, hi)
			u := far.Evaluate(c, s.Pts[lo:hi], tensorStrengths(s, phi, lo, hi), s.Pts[lo:hi])
			all, _ := par.AllgathervFlat(c, u)
			if c.Rank() == 0 {
				rows = all
			}
		})
		return rows
	}
	one := rowsAt(1, 1)
	sameBits(t, "1 rank, 4 cores", one, rowsAt(4, 1))
	for _, ranks := range []int{2, 3, 4, 5} {
		sameBits(t, fmt.Sprintf("%d ranks", ranks), rowsAt(4, ranks), one)
	}
}

// TestRigidWallOnlyForDeclaredSlices: the stored path is taken for the
// declared slices and nothing else. A moving-target sum (EvalVelocity) and a
// sum over the same coordinates held in other memory both reach the FMM
// evaluator, counted by its fmm.direct span; Apply does not.
func TestRigidWallOnlyForDeclaredSlices(t *testing.T) {
	s := capsuleSurface()
	n := len(s.Pts)
	phi := randomDensity(3*n, 43)
	reg := telemetry.NewRegistry()
	direct := func() int64 { return reg.Histogram("fmm.direct").Count() }
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sv := NewWallOperator(c, s, WithFMM(FMMConfig{DirectBelow: 1 << 40}), WithTelemetry(reg))
		sv.Apply(c, phi)
		if got := direct(); got != 0 {
			t.Fatalf("Apply made %d direct sums, want 0", got)
		}
		targets := [][3]float64{{0.1, -0.2, 0.3}, {0, 0.4, -1.1}}
		sv.EvalVelocity(c, phi, targets, []forest.Closest{{PatchID: -1}, {PatchID: -1}})
		if got := direct(); got != 1 {
			t.Fatalf("EvalVelocity: %d direct sums, want 1", got)
		}
		copied := append([][3]float64(nil), s.Pts...)
		q := tensorStrengths(s, phi, 0, n)
		moved := sv.far.Evaluate(c, s.Pts, q, copied)
		if got := direct(); got != 2 {
			t.Fatalf("copied targets: %d direct sums, want 2", got)
		}
		sv.far.Evaluate(c, copied, q, s.Pts)
		if got := direct(); got != 3 {
			t.Fatalf("copied sources: %d direct sums, want 3", got)
		}
		if d := fmm.RelativeError(sv.far.Evaluate(c, s.Pts, q, s.Pts), moved); d > 1e-13 {
			t.Errorf("stored and re-summed results differ by %.3g", d)
		}
		if got := direct(); got != 3 {
			t.Fatalf("declared slices: %d direct sums, want 3", got)
		}
	})
}

// TestRigidWallSizeRule: the operator is kept up to 8·N² = 256 MB and not
// beyond; an over-budget wall keeps summing through the evaluator.
func TestRigidWallSizeRule(t *testing.T) {
	for n, want := range map[int]bool{0: true, 1176: true, 3750: true, 5792: true, 5793: false, 1 << 20: false} {
		if rigidWallFits(n) != want {
			t.Errorf("rigidWallFits(%d) = %v, want %v", n, !want, want)
		}
	}
	// 5793 nodes of which this world's only rank declares the first 64: the
	// call is legal, the surface is over budget, nothing is stored.
	pts := make([][3]float64, 5793)
	nrm := make([][3]float64, len(pts))
	for i := range pts {
		a := float64(i)
		pts[i] = [3]float64{math.Cos(a), math.Sin(a), a / float64(len(pts))}
		nrm[i] = [3]float64{math.Cos(a), math.Sin(a), 0}
	}
	reg := telemetry.NewRegistry()
	par.Run(1, par.SKX(), func(c *par.Comm) {
		far := fmmFarFieldWith(FMMConfig{DirectBelow: 1 << 40}, reg, nil)
		far.Rigid(c, pts, nrm, 0, 64)
		far.Evaluate(c, pts[:64], make([]float64, 9*64), pts[:64])
	})
	if got := reg.Histogram("fmm.direct").Count(); got != 1 {
		t.Errorf("over-budget wall: %d direct sums, want 1", got)
	}
	if got := reg.Gauge("bie.wall.stored_kernel").Value(); got != storedKernelNone {
		t.Errorf("over-budget wall: bie.wall.stored_kernel = %g, want %d", got, storedKernelNone)
	}
}

// TestStoredKernelGauge: a wall under the budget reports the kernel that sums
// it, AVX2 where the CPU has it and the portable loop elsewhere.
func TestStoredKernelGauge(t *testing.T) {
	s := capsuleSurface()
	want := storedKernelGo
	if useAVX2 {
		want = storedKernelAVX2
	}
	reg := telemetry.NewRegistry()
	par.Run(1, par.SKX(), func(c *par.Comm) {
		NewWallOperator(c, s, WithTelemetry(reg))
	})
	if got := reg.Gauge("bie.wall.stored_kernel").Value(); got != float64(want) {
		t.Errorf("bie.wall.stored_kernel = %g, want %d", got, want)
	}
}

// TestTensorStrengthContractsToVector: Q = ϕ⊗n·w is rank one, so Q n = ϕ w
// recovers the vector strength: Q − (Qn)⊗n vanishes to rounding.
func TestTensorStrengthContractsToVector(t *testing.T) {
	s := torusSurface()
	phi := randomDensity(s.NumUnknowns(), 44)
	for g, n := range s.Nrm {
		q := tensorStrengths(s, phi, g, g+1)
		var norm, res float64
		for j := 0; j < 3; j++ {
			f := q[3*j]*n[0] + q[3*j+1]*n[1] + q[3*j+2]*n[2]
			for k := 0; k < 3; k++ {
				norm = math.Max(norm, math.Abs(q[3*j+k]))
				res = math.Max(res, math.Abs(q[3*j+k]-f*n[k]))
			}
		}
		if res > 1e-15*norm {
			t.Fatalf("node %d: |Q − (Qn)⊗n| = %.3g·|Q|", g, res/norm)
		}
	}
}

// TestApplyIndependentOfFMMConfig: under the budget the wall→wall sum has one
// implementation, so no FMM setting — a tree for everything, or for nothing —
// changes a bit of Apply. A patch count can no longer tip a wall solve into
// the tree.
func TestApplyIndependentOfFMMConfig(t *testing.T) {
	s := capsuleSurface()
	phi := randomDensity(s.NumUnknowns(), 45)
	var tree, direct []float64
	par.Run(1, par.SKX(), func(c *par.Comm) {
		tree = NewWallOperator(c, s, WithFMM(FMMConfig{DirectBelow: 1, Order: 3})).Apply(c, phi)
		direct = NewWallOperator(c, s, WithFMM(FMMConfig{DirectBelow: 1 << 40})).Apply(c, phi)
	})
	sameBits(t, "Apply", tree, direct)
}

var (
	sinkWall *rigidWall
	sinkRows []float64
)

// BenchmarkRigidWallBuild times the stored operator's build on a random
// N-node wall (the cost depends on N alone), in wall-clock ns per node pair
// at the -cpu count.
func BenchmarkRigidWallBuild(b *testing.B) {
	for _, n := range []int{1176, 3750} {
		pts, nrm, _ := kernelWall(n, 1)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkWall = newRigidWall(pts, nrm, 0, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*n), "ns/pair")
		})
	}
}

// BenchmarkRigidWallApply times one stored wall→wall product at one rank,
// per kernel, in wall-clock ns per node pair at the -cpu count.
func BenchmarkRigidWallApply(b *testing.B) {
	kernels := []struct {
		name  string
		block func(g, y, f []float64, x, acc *[12]float64)
	}{{"go", rigidWallBlockGo}, {"avx2", rigidWallBlockAVX2}}
	if !useAVX2 {
		kernels = kernels[:1]
	}
	for _, n := range []int{1176, 3750} {
		pts, nrm, q := kernelWall(n, 1)
		w := newRigidWall(pts, nrm, 0, n)
		for _, k := range kernels {
			b.Run(fmt.Sprintf("kernel=%s/N=%d", k.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					par.Run(1, par.SKX(), func(c *par.Comm) { sinkRows = w.apply(c, q, k.block) })
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*n), "ns/pair")
			})
		}
	}
}
