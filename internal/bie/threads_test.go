package bie

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rbcflow/internal/forest"
	"rbcflow/internal/par"
	"rbcflow/internal/telemetry"
)

// nearWallTargets returns n points inside the unit sphere, most of them in
// the wall's near zone (radius 0.85..0.98) and a few well inside.
func nearWallTargets(n int, seed int64) [][3]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][3]float64, n)
	for i := range out {
		d := [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		r := 0.85 + 0.13*rng.Float64()
		if i%7 == 0 {
			r = 0.3 * rng.Float64()
		}
		s := r / math.Sqrt(d[0]*d[0]+d[1]*d[1]+d[2]*d[2])
		out[i] = [3]float64{d[0] * s, d[1] * s, d[2] * s}
	}
	return out
}

func sphereDEps(s *Surface) float64 {
	var dEps float64
	for _, lm := range s.LMax {
		dEps = math.Max(dEps, s.P.NearFactor*lm)
	}
	return dEps
}

func randomDensity(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	phi := make([]float64, n)
	for i := range phi {
		phi[i] = rng.NormFloat64()
	}
	return phi
}

func sameBits(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: entry %d: %x vs %x", label, i, a[i], b[i])
		}
	}
}

// TestOperatorBitIdenticalAcrossCoreCounts pins the threading contract of
// the boundary phase: the pool splits targets into chunks that depend only
// on the problem size, and no chunk reads another's output, so Apply (its
// far field on the stored wall operator's row loop, not in fmm.Direct) and
// EvalVelocity (with the closest-point search feeding it) return the same
// bits on one core and on four.
func TestOperatorBitIdenticalAcrossCoreCounts(t *testing.T) {
	s := planSphere()
	plan := BuildQuadPlan(s, 2)
	phi := randomDensity(s.NumUnknowns(), 21)
	targets := nearWallTargets(90, 22)
	dEps := sphereDEps(s)

	type outputs struct {
		apply, vel []float64
		cls        []forest.Closest
	}
	runAt := func(procs int) outputs {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var o outputs
		reg := telemetry.NewRegistry()
		par.Run(1, par.SKX(), func(c *par.Comm) {
			sv := NewWallOperator(c, s, WithFMM(FMMConfig{DirectBelow: 1 << 40}), WithPlan(plan), WithTelemetry(reg))
			o.apply = sv.Apply(c, phi)
			if n := reg.Histogram("fmm.direct").Count(); n != 0 {
				t.Errorf("Apply at %d cores: %d direct sums, want the stored operator", procs, n)
			}
			o.cls = s.F.ClosestPoints(c, targets, dEps)
			o.vel = sv.EvalVelocity(c, phi, targets, o.cls)
		})
		return o
	}
	one, four := runAt(1), runAt(4)
	sameBits(t, "Apply", one.apply, four.apply)
	sameBits(t, "EvalVelocity", one.vel, four.vel)
	near := 0
	for i := range one.cls {
		if one.cls[i] != four.cls[i] {
			t.Fatalf("ClosestPoints: point %d: %+v vs %+v", i, one.cls[i], four.cls[i])
		}
		if one.cls[i].PatchID >= 0 {
			near++
		}
	}
	if near <= 2*evalGrain {
		t.Fatalf("only %d near-zone targets: the near loop would not span several chunks", near)
	}
}

// TestDensityMemoNeverStale: the per-rectangle density memo must belong to
// exactly one density. Two EvalVelocity calls on one operator (whose pooled
// contexts keep their rectangle caches, memos included, between calls) with
// two different densities must each match a fresh operator that has never
// seen the other density.
func TestDensityMemoNeverStale(t *testing.T) {
	s := planSphere()
	plan := BuildQuadPlan(s, 2)
	targets := nearWallTargets(40, 31)
	dEps := sphereDEps(s)
	phiA := randomDensity(s.NumUnknowns(), 32)
	phiB := randomDensity(s.NumUnknowns(), 33)

	par.Run(1, par.SKX(), func(c *par.Comm) {
		newOp := func() *Solver {
			return NewWallOperator(c, s, WithFMM(FMMConfig{DirectBelow: 1 << 40}), WithPlan(plan))
		}
		cls := s.F.ClosestPoints(c, targets, dEps)
		shared := newOp()
		gotA := shared.EvalVelocity(c, phiA, targets, cls)
		gotB := shared.EvalVelocity(c, phiB, targets, cls)
		gotA2 := shared.EvalVelocity(c, phiA, targets, cls)
		sameBits(t, "density A after nothing", gotA, newOp().EvalVelocity(c, phiA, targets, cls))
		sameBits(t, "density B after A", gotB, newOp().EvalVelocity(c, phiB, targets, cls))
		sameBits(t, "density A after B", gotA2, gotA)
	})
}

// TestDirectVelocityCallsSeeNoMemo: dlVelocity called directly (as the
// adaptive tests do) with a density that changes between calls — in place,
// too — always integrates the density it was handed.
func TestDirectVelocityCallsSeeNoMemo(t *testing.T) {
	const qc = 5
	pp := curvedPatch(8)
	x := [3]float64{0.31, -0.12, 0.45}
	phi := testDensity(qc)
	reused := newAdaptiveCtx(qc)
	for round := 0; round < 3; round++ {
		var got, want [3]float64
		reused.dlVelocity(got[:], pp, x, phi)
		newAdaptiveCtx(qc).dlVelocity(want[:], pp, x, phi)
		sameBits(t, "round", got[:], want[:])
		for i := range phi {
			phi[i] = 0.5*phi[i] - float64(round+i%3) // same slice, new density
		}
	}
}
