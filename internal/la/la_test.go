package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDotAxpyNorm(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 1*4-2*5+3*6 {
		t.Fatalf("Dot = %v", got)
	}
	Axpy(2, x, y)
	want := []float64{6, -1, 12}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy got %v want %v", y, want)
		}
	}
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm2 = %v", got)
	}
	if got := NormInf([]float64{-7, 2}); got != 7 {
		t.Fatalf("NormInf = %v", got)
	}
}

func TestDenseMulVec(t *testing.T) {
	m := NewDense(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("MulVec got %v", dst)
	}
	dt := make([]float64, 3)
	m.MulTransVec(dt, []float64{1, 1})
	if dt[0] != 5 || dt[1] != 7 || dt[2] != 9 {
		t.Fatalf("MulTransVec got %v", dt)
	}
}

func TestMulMatMat(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	b := NewDense(2, 2)
	copy(b.Data, []float64{5, 6, 7, 8})
	c := Mul(a, b)
	want := []float64{19, 22, 43, 50}
	for i, v := range c.Data {
		if v != want[i] {
			t.Fatalf("Mul got %v want %v", c.Data, want)
		}
	}
}

func TestLUSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(30)
		m := NewDense(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		// Diagonal boost to keep well conditioned.
		for i := 0; i < n; i++ {
			m.Set(i, i, m.At(i, i)+float64(n))
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		m.MulVec(b, xTrue)
		x, err := SolveDense(m, b)
		if err != nil {
			t.Fatalf("SolveDense: %v", err)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-9 {
				t.Fatalf("trial %d: solution error %g at %d", trial, x[i]-xTrue[i], i)
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	m := NewDense(2, 2)
	copy(m.Data, []float64{1, 2, 2, 4})
	if _, err := Factor(m); err == nil {
		t.Fatal("expected singular matrix error")
	}
}

func TestLUPermutationSign(t *testing.T) {
	m := NewDense(2, 2)
	copy(m.Data, []float64{0, 1, 1, 0})
	f, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	f.Solve(x, []float64{3, 7})
	if x[0] != 7 || x[1] != 3 {
		t.Fatalf("permutation solve got %v", x)
	}
}

func TestGMRESIdentity(t *testing.T) {
	n := 10
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i + 1)
	}
	x := make([]float64, n)
	res, err := GMRES(func(dst, v []float64) { copy(dst, v) }, b, x, GMRESOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("GMRES on identity did not converge")
	}
	for i := range x {
		if math.Abs(x[i]-b[i]) > 1e-9 {
			t.Fatalf("x[%d]=%v", i, x[i])
		}
	}
}

func TestGMRESRandomSPDish(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 40
	m := NewDense(n, n)
	for i := range m.Data {
		m.Data[i] = 0.2 * rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+4)
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	m.MulVec(b, xTrue)
	x := make([]float64, n)
	res, err := GMRES(m.MulVec, b, x, GMRESOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: resid %g after %d iters", res.Residual, res.Iterations)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-8 {
			t.Fatalf("x[%d] error %g", i, x[i]-xTrue[i])
		}
	}
}

// TestGMRESWallTime: the solve reports total and per-iteration wall time —
// one entry per recorded residual, all non-negative, summing to no more than
// the total — so solver cost is attributable without a telemetry registry.
func TestGMRESWallTime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 40
	m := NewDense(n, n)
	for i := range m.Data {
		m.Data[i] = 0.2 * rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+4)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res, err := GMRES(m.MulVec, b, x, GMRESOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if res.WallSec <= 0 {
		t.Errorf("WallSec = %g, want > 0", res.WallSec)
	}
	if len(res.IterSec) != len(res.History) {
		t.Fatalf("len(IterSec) = %d, len(History) = %d", len(res.IterSec), len(res.History))
	}
	var sum float64
	for i, s := range res.IterSec {
		if s < 0 {
			t.Errorf("IterSec[%d] = %g, want >= 0", i, s)
		}
		sum += s
	}
	if sum > res.WallSec {
		t.Errorf("sum(IterSec) %g exceeds WallSec %g", sum, res.WallSec)
	}
}

func TestGMRESRestart(t *testing.T) {
	// Force restarts with small Krylov dimension.
	rng := rand.New(rand.NewSource(3))
	n := 30
	m := NewDense(n, n)
	for i := range m.Data {
		m.Data[i] = 0.1 * rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, 3)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res, err := GMRES(m.MulVec, b, x, GMRESOptions{Tol: 1e-10, Restart: 5, MaxIters: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("restarted GMRES did not converge: %g", res.Residual)
	}
	// Verify residual directly.
	r := make([]float64, n)
	m.MulVec(r, x)
	Sub(r, b, r)
	if Norm2(r)/Norm2(b) > 1e-8 {
		t.Fatalf("true residual too large: %g", Norm2(r)/Norm2(b))
	}
}

func TestGMRESMaxIterCap(t *testing.T) {
	// A hard system with a tiny iteration cap must report non-convergence.
	rng := rand.New(rand.NewSource(5))
	n := 50
	m := NewDense(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+8)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res, err := GMRES(m.MulVec, b, x, GMRESOptions{Tol: 1e-14, MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("expected non-convergence with 3 iterations")
	}
	if len(res.History) == 0 || len(res.History) > 3 {
		t.Fatalf("history length %d", len(res.History))
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	x := []float64{1, 2, 3}
	res, err := GMRES(func(dst, v []float64) { copy(dst, v) }, []float64{0, 0, 0}, x, GMRESOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("zero RHS should converge immediately")
	}
	for _, v := range x {
		if v != 0 {
			t.Fatalf("x = %v, want zeros", x)
		}
	}
}

// Property: LU solve then multiply reproduces b for random well-conditioned
// systems.
func TestQuickLURoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		m := NewDense(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			m.Set(i, i, m.At(i, i)+float64(2*n))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveDense(m, b)
		if err != nil {
			return false
		}
		chk := make([]float64, n)
		m.MulVec(chk, x)
		for i := range chk {
			if math.Abs(chk[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Mul is associative on small random matrices (within tolerance).
func TestQuickMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		mk := func() *Dense {
			m := NewDense(n, n)
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
			return m
		}
		a, b, c := mk(), mk(), mk()
		left := Mul(Mul(a, b), c)
		right := Mul(a, Mul(b, c))
		for i := range left.Data {
			if math.Abs(left.Data[i]-right.Data[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The Krylov basis is allocated as the iterations reach it: a solve that
// converges in a handful of iterations allocates a handful of vectors,
// whatever Restart says (it used to allocate all Restart+1 up front).
func TestGMRESAllocatesBasisAsNeeded(t *testing.T) {
	const n = 1000
	apply := func(dst, x []float64) { // I + a rank-2 perturbation: converges in 3 iterations
		var s0, s1 float64
		for i, v := range x {
			s0 += v
			s1 += float64(i%7) * v
		}
		for i, v := range x {
			dst[i] = v + 1e-3*s0 + 1e-4*float64(i%5)*s1
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	x := make([]float64, n)
	var iters int
	allocs := testing.AllocsPerRun(5, func() {
		Zero(x)
		res, err := GMRES(apply, b, x, GMRESOptions{Tol: 1e-10, Restart: 60, MaxIters: 60})
		if err != nil || !res.Converged {
			t.Fatalf("GMRES: converged %v, err %v", res.Converged, err)
		}
		iters = res.Iterations
	})
	if iters > 4 {
		t.Fatalf("took %d iterations; the operator should converge in 3", iters)
	}
	// Per iteration: a basis vector, a Hessenberg column, and the growth of
	// the three result/outer slices; plus a dozen fixed allocations.
	if limit := float64(6*iters + 16); allocs > limit {
		t.Fatalf("%d iterations made %.0f allocations, want at most %.0f (Restart+1 = 61 basis vectors?)", iters, allocs, limit)
	}
}

// gmresTestSystem is a well-conditioned random 40×40 system whose right-hand
// side has no zero entry.
func gmresTestSystem(seed int64) (*Dense, []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := 40
	m := NewDense(n, n)
	for i := range m.Data {
		m.Data[i] = 0.2 * rng.NormFloat64()
	}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+4)
		b[i] = 1 + rng.Float64()
	}
	return m, b
}

func sameFloats(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: entry %d: %v vs %v", label, i, a[i], b[i])
		}
	}
}

// TestGMRESZeroGuessSkipsResidualMatvec: with an identically zero guess
// r = b exactly, so the operator is not asked for A·0. A guess one denormal
// away from zero takes the operator path — A·x rounds away against b — and
// must see exactly one call more and return the same bits.
func TestGMRESZeroGuessSkipsResidualMatvec(t *testing.T) {
	m, b := gmresTestSystem(11)
	solve := func(x0 float64) (calls int, x []float64, res GMRESResult) {
		x = make([]float64, len(b))
		x[3] = x0
		res, err := GMRES(func(dst, v []float64) { calls++; m.MulVec(dst, v) }, b, x, GMRESOptions{Tol: 1e-12})
		if err != nil || !res.Converged {
			t.Fatalf("GMRES: converged %v, err %v", res.Converged, err)
		}
		return calls, x, res
	}
	zeroCalls, zeroX, zeroRes := solve(0)
	tinyCalls, tinyX, tinyRes := solve(math.SmallestNonzeroFloat64)
	if zeroCalls != zeroRes.Iterations {
		t.Errorf("zero guess: %d operator calls for %d iterations, want one per iteration", zeroCalls, zeroRes.Iterations)
	}
	if tinyCalls != zeroCalls+1 {
		t.Errorf("operator calls: %d from a zero guess, %d from a nonzero one, want one fewer", zeroCalls, tinyCalls)
	}
	if zeroRes.Iterations != tinyRes.Iterations {
		t.Errorf("iterations %d vs %d", zeroRes.Iterations, tinyRes.Iterations)
	}
	sameFloats(t, "solution", zeroX, tinyX)
	sameFloats(t, "history", zeroRes.History, tinyRes.History)
}

// TestGMRESRightPreconditioner: an exact inverse as M converges in one
// iteration; the identity as M is the unpreconditioned solve bit for bit
// (from a zero guess the two solution updates sum in the same order); a
// rough inverse needs fewer iterations than none, reaches the same solution,
// and its reported residual is the true ‖b − A·x‖/‖b‖.
func TestGMRESRightPreconditioner(t *testing.T) {
	m, b := gmresTestSystem(12)
	n := len(b)
	lu, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(M Operator) ([]float64, GMRESResult) {
		x := make([]float64, n)
		res, err := GMRES(m.MulVec, b, x, GMRESOptions{Tol: 1e-12, M: M})
		if err != nil || !res.Converged {
			t.Fatalf("GMRES: converged %v, err %v", res.Converged, err)
		}
		return x, res
	}
	plainX, plain := solve(nil)

	exactX, exact := solve(func(dst, v []float64) { lu.Solve(dst, v) })
	if exact.Iterations != 1 {
		t.Errorf("M = A⁻¹: %d iterations, want 1", exact.Iterations)
	}
	idX, id := solve(func(dst, v []float64) { copy(dst, v) })
	sameFloats(t, "M = I: solution", idX, plainX)
	sameFloats(t, "M = I: history", id.History, plain.History)

	// The inverse of the diagonal: a rough M.
	jacobiX, jacobi := solve(func(dst, v []float64) {
		for i := range v {
			dst[i] = v[i] / m.At(i, i)
		}
	})
	if jacobi.Iterations > plain.Iterations {
		t.Errorf("M = diag⁻¹: %d iterations, unpreconditioned %d", jacobi.Iterations, plain.Iterations)
	}
	ax := make([]float64, n)
	for name, x := range map[string][]float64{"exact": exactX, "jacobi": jacobiX} {
		m.MulVec(ax, x)
		Sub(ax, b, ax)
		if rel := Norm2(ax) / Norm2(b); rel > 1e-11 {
			t.Errorf("M = %s: true residual %.3g above the tolerance the solve reported meeting", name, rel)
		}
		for i := range x {
			if math.Abs(x[i]-plainX[i]) > 1e-10 {
				t.Fatalf("M = %s: x[%d] differs from the unpreconditioned solution by %g", name, i, x[i]-plainX[i])
			}
		}
	}

	// Restarts and a nonzero guess: x = x₀ + M(u) cycle after cycle.
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.1 * float64(i%3)
	}
	res, err := GMRES(m.MulVec, b, x, GMRESOptions{Tol: 1e-12, Restart: 3, MaxIters: 200,
		M: func(dst, v []float64) {
			for i := range v {
				dst[i] = v[i] / m.At(i, i)
			}
		}})
	if err != nil || !res.Converged {
		t.Fatalf("restarted preconditioned GMRES: converged %v, err %v", res.Converged, err)
	}
	for i := range x {
		if math.Abs(x[i]-plainX[i]) > 1e-10 {
			t.Fatalf("restarted: x[%d] differs by %g", i, x[i]-plainX[i])
		}
	}
}
