package fmm

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rbcflow/internal/kernels"
	"rbcflow/internal/par"
)

func randomCloud(n int, seed int64, ds int) (pos [][3]float64, q []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos = make([][3]float64, n)
	q = make([]float64, n*ds)
	for i := range pos {
		pos[i] = [3]float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*2 - 1}
	}
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	return pos, q
}

func TestInterpolationReproducesSmoothFunction(t *testing.T) {
	ci := newChebInterp(8)
	// Interpolate f(x) = exp(x0) sin(x1) + x2^2 from node values.
	f := func(p [3]float64) float64 { return math.Exp(p[0])*math.Sin(p[1]) + p[2]*p[2] }
	vals := make([]float64, ci.nn)
	for k, nd := range ci.node3 {
		vals[k] = f(nd)
	}
	w := make([]float64, ci.nn)
	for _, xi := range [][3]float64{{0.3, -0.2, 0.7}, {-0.9, 0.5, 0.1}, {0, 0, 0}} {
		ci.weights3d(xi, w)
		var got float64
		for k := range w {
			got += w[k] * vals[k]
		}
		if math.Abs(got-f(xi)) > 1e-6 {
			t.Fatalf("interp at %v: got %v want %v", xi, got, f(xi))
		}
	}
}

func TestChildTransferConsistency(t *testing.T) {
	// Interpolating a smooth function from parent nodes to child nodes via
	// childW must match direct evaluation.
	ci := newChebInterp(8)
	f := func(p [3]float64) float64 { return math.Cos(p[0]+p[1]) * math.Exp(0.3*p[2]) }
	parentVals := make([]float64, ci.nn)
	for k, nd := range ci.node3 {
		parentVals[k] = f(nd)
	}
	for oct := 0; oct < 8; oct++ {
		off := [3]float64{float64(oct&1) - 0.5, float64(oct>>1&1) - 0.5, float64(oct>>2&1) - 0.5}
		W := ci.childW[oct]
		for j, nd := range ci.node3 {
			var got float64
			for k := 0; k < ci.nn; k++ {
				got += W[j*ci.nn+k] * parentVals[k]
			}
			p := [3]float64{nd[0]/2 + off[0], nd[1]/2 + off[1], nd[2]/2 + off[2]}
			if math.Abs(got-f(p)) > 1e-4 {
				t.Fatalf("oct %d node %d: got %v want %v", oct, j, got, f(p))
			}
		}
	}
}

func TestFMMMatchesDirectLaplace(t *testing.T) {
	n := 1500
	pos, q := randomCloud(n, 1, 1)
	e := NewEvaluator(Config{Kernel: kernels.LaplaceSingle{}, Order: 5, LeafSize: 40, DirectBelow: 1})
	got := e.Evaluate(pos, q, pos)
	want := e.Direct(pos, q, pos)
	if err := RelativeError(got, want); err > 2e-4 {
		t.Fatalf("Laplace FMM relative error %g", err)
	}
}

func TestFMMMatchesDirectStokeslet(t *testing.T) {
	n := 1200
	pos, q := randomCloud(n, 2, 3)
	e := NewEvaluator(Config{Kernel: kernels.Stokeslet{Mu: 1.0}, Order: 5, LeafSize: 40, DirectBelow: 1})
	got := e.Evaluate(pos, q, pos)
	want := e.Direct(pos, q, pos)
	if err := RelativeError(got, want); err > 2e-4 {
		t.Fatalf("Stokeslet FMM relative error %g", err)
	}
}

func TestFMMMatchesDirectDoubleLayer(t *testing.T) {
	n := 1200
	pos, q := randomCloud(n, 3, 9)
	e := NewEvaluator(Config{Kernel: kernels.StokesDoubleTensor{}, Order: 5, LeafSize: 40, DirectBelow: 1})
	got := e.Evaluate(pos, q, pos)
	want := e.Direct(pos, q, pos)
	if err := RelativeError(got, want); err > 5e-4 {
		t.Fatalf("double-layer FMM relative error %g", err)
	}
}

func TestFMMDisjointTargets(t *testing.T) {
	// Targets away from sources (the check-point evaluation pattern),
	// including targets in empty leaves (m2p fallback path).
	srcPos, q := randomCloud(2000, 4, 1)
	rng := rand.New(rand.NewSource(5))
	trg := make([][3]float64, 300)
	for i := range trg {
		trg[i] = [3]float64{rng.Float64()*6 - 3, rng.Float64()*6 - 3, rng.Float64()*6 - 3}
	}
	e := NewEvaluator(Config{Kernel: kernels.LaplaceSingle{}, Order: 5, LeafSize: 40, DirectBelow: 1})
	got := e.Evaluate(srcPos, q, trg)
	want := e.Direct(srcPos, q, trg)
	if err := RelativeError(got, want); err > 2e-4 {
		t.Fatalf("disjoint-target FMM relative error %g", err)
	}
}

func TestFMMOrderConvergence(t *testing.T) {
	pos, q := randomCloud(1000, 6, 1)
	var prev float64 = math.Inf(1)
	for _, order := range []int{3, 5, 7} {
		e := NewEvaluator(Config{Kernel: kernels.LaplaceSingle{}, Order: order, LeafSize: 40, DirectBelow: 1})
		got := e.Evaluate(pos, q, pos)
		want := e.Direct(pos, q, pos)
		err := RelativeError(got, want)
		if err > prev {
			t.Fatalf("error did not decrease with order: order %d err %g prev %g", order, err, prev)
		}
		prev = err
	}
	if prev > 1e-5 {
		t.Fatalf("order-7 error too large: %g", prev)
	}
}

func TestFMMDirectThreshold(t *testing.T) {
	// Below the threshold the result must be exactly the direct sum.
	pos, q := randomCloud(50, 7, 3)
	e := NewEvaluator(Config{Kernel: kernels.Stokeslet{Mu: 2}, Order: 4})
	got := e.Evaluate(pos, q, pos)
	want := e.Direct(pos, q, pos)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("below-threshold result differs at %d", i)
		}
	}
}

func TestFMMLinearityInStrengths(t *testing.T) {
	pos, q1 := randomCloud(800, 8, 1)
	_, q2 := randomCloud(800, 9, 1)
	e := NewEvaluator(Config{Kernel: kernels.LaplaceSingle{}, Order: 4, LeafSize: 40, DirectBelow: 1})
	alpha := 1.7
	comb := make([]float64, len(q1))
	for i := range comb {
		comb[i] = q1[i] + alpha*q2[i]
	}
	uComb := e.Evaluate(pos, comb, pos)
	u1 := e.Evaluate(pos, q1, pos)
	u2 := e.Evaluate(pos, q2, pos)
	for i := range uComb {
		want := u1[i] + alpha*u2[i]
		if math.Abs(uComb[i]-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("linearity violated at %d: %v vs %v", i, uComb[i], want)
		}
	}
}

func TestFMMEmptyInputs(t *testing.T) {
	e := NewEvaluator(Config{Kernel: kernels.LaplaceSingle{}})
	if out := e.Evaluate(nil, nil, [][3]float64{{0, 0, 0}}); len(out) != 1 || out[0] != 0 {
		t.Fatalf("empty sources: %v", out)
	}
	if out := e.Evaluate([][3]float64{{0, 0, 0}}, []float64{1}, nil); len(out) != 0 {
		t.Fatalf("empty targets: %v", out)
	}
}

// The tree is walked in one fixed order whatever the rank count; ranks differ
// only in how the partial multipoles are grouped before the all-reduce.
func TestEvaluateDistMatchesSerial(t *testing.T) {
	nTotal := 1800
	posAll, qAll := randomCloud(nTotal, 10, 3)
	eSerial := NewEvaluator(Config{Kernel: kernels.Stokeslet{Mu: 1}, Order: 4, LeafSize: 20, DirectBelow: 1}) // depth 3
	want := eSerial.Evaluate(posAll, qAll, posAll)

	for _, p := range []int{1, 2, 4} {
		results := make([][]float64, p)
		par.Run(p, par.SKX(), func(c *par.Comm) {
			lo, hi := par.BlockRange(nTotal, p, c.Rank())
			e := NewEvaluator(Config{Kernel: kernels.Stokeslet{Mu: 1}, Order: 4, LeafSize: 20, DirectBelow: 1})
			local := EvaluateDist(c, e, posAll[lo:hi], qAll[lo*3:hi*3], posAll[lo:hi])
			results[c.Rank()] = local
		})
		var got []float64
		for _, r := range results {
			got = append(got, r...)
		}
		if len(got) != len(want) {
			t.Fatalf("p=%d: length mismatch %d vs %d", p, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("p=%d: dist vs serial mismatch at %d: %v vs %v", p, i, got[i], want[i])
			}
		}
	}
}

func TestEvaluateDistSmallFallsBackToDirect(t *testing.T) {
	pos, q := randomCloud(30, 11, 1)
	e0 := NewEvaluator(Config{Kernel: kernels.LaplaceSingle{}})
	want := e0.Direct(pos, q, pos)
	par.Run(2, par.SKX(), func(c *par.Comm) {
		lo, hi := par.BlockRange(30, 2, c.Rank())
		e := NewEvaluator(Config{Kernel: kernels.LaplaceSingle{}})
		got := EvaluateDist(c, e, pos[lo:hi], q[lo:hi], pos[lo:hi])
		for i := range got {
			if math.Abs(got[i]-want[lo+i]) > 1e-13 {
				t.Errorf("rank %d: direct-dist mismatch at %d", c.Rank(), i)
			}
		}
	})
}

// Direct splits the targets into chunks that depend only on their number and
// sums each target's sources in order, so its output is the same bits on one
// core and on four — and equals the per-pair reference loop it replaced.
func TestDirectBitIdenticalAcrossCoreCounts(t *testing.T) {
	for _, k := range []kernels.Kernel{kernels.Stokeslet{Mu: 1.3}, kernels.StokesDoubleTensor{}} {
		src, q := randomCloud(300, 41, k.SrcDim())
		trg, _ := randomCloud(5*directGrain+7, 42, 1)
		copy(trg[:4], src[:4]) // coincident pairs
		e := NewEvaluator(Config{Kernel: k})
		runAt := func(procs int) []float64 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return e.Direct(src, q, trg)
		}
		one, four := runAt(1), runAt(4)
		want := make([]float64, len(one))
		ds, do := k.SrcDim(), k.OutDim()
		for t, x := range trg {
			for s, y := range src {
				k.Eval(want[t*do:(t+1)*do], x[0]-y[0], x[1]-y[1], x[2]-y[2], q[s*ds:(s+1)*ds])
			}
		}
		for i := range one {
			if math.Float64bits(one[i]) != math.Float64bits(four[i]) {
				t.Fatalf("%T: entry %d: %x on one core, %x on four", k, i, one[i], four[i])
			}
			if math.Float64bits(one[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%T: entry %d: %x, per-pair reference %x", k, i, one[i], want[i])
			}
		}
	}
}

// The tree passes walk boxes in sorted-key order and sum every box's and
// every target's contributions in one fixed order, so two evaluations of the
// same input give the same bits, on one core and on four. The sources leave
// an octant empty and some targets sit in it, so the M2P descent runs too.
func TestTreeBitRepeatableAcrossCallsAndCoreCounts(t *testing.T) {
	for _, k := range []kernels.Kernel{kernels.Stokeslet{Mu: 0.7}, kernels.StokesDoubleTensor{}} {
		all, qAll := randomCloud(3600, 51, k.SrcDim())
		var src [][3]float64
		var q []float64
		for i, p := range all {
			if p[0] > 0 && p[1] > 0 && p[2] > 0 {
				continue
			}
			src = append(src, p)
			q = append(q, qAll[i*k.SrcDim():(i+1)*k.SrcDim()]...)
		}
		trg := append(all[:2*directGrain+5:2*directGrain+5], [][3]float64{{0.9, 0.9, 0.9}, {0.55, 0.6, 0.7}, {0.1, 0.2, 0.1}}...)
		e := NewEvaluator(Config{Kernel: k, Order: 3, LeafSize: 8, DirectBelow: 1})
		lo, hi := bbox(src, trg)
		if d := buildTree(e.cfg, lo, hi, src, q, e.ci).depth; d < 3 {
			t.Fatalf("%T: tree depth %d, want at least 3", k, d)
		}
		runAt := func(procs int) []float64 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return e.Evaluate(src, q, trg)
		}
		first, again, four := runAt(1), runAt(1), runAt(4)
		for i := range first {
			if math.Float64bits(first[i]) != math.Float64bits(again[i]) {
				t.Fatalf("%T: entry %d: %x, then %x on the same input", k, i, first[i], again[i])
			}
			if math.Float64bits(first[i]) != math.Float64bits(four[i]) {
				t.Fatalf("%T: entry %d: %x on one core, %x on four", k, i, first[i], four[i])
			}
		}
		if err := RelativeError(first, e.Direct(src, q, trg)); err > 2e-2 {
			t.Fatalf("%T: tree differs from the direct sum by %.2g", k, err)
		}
	}
}
