package bie

import (
	"math"
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

// TestRigidWallRowsAcrossRanks: the operator is row-partitioned and every
// row sums the allgathered strengths in node order, so the gathered rows are
// the same at 1, 2 and 4 ranks — and the same bits on one core and on four.
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
	for _, ranks := range []int{2, 4} {
		if d := fmm.RelativeError(rowsAt(4, ranks), one); d > 1e-12 {
			t.Errorf("%d ranks: rows differ from 1 rank by %.3g", ranks, d)
		}
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
