package rbc

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

func TestSphereGeometry(t *testing.T) {
	r := 1.7
	c := NewSphereCell(16, r, [3]float64{0.3, -0.2, 0.5})
	geo := c.ComputeGeometry()
	// Mean curvature of a sphere of radius r (outward normal) is −1/r with
	// the (E N − 2FM + GL) convention used here... verify magnitude and
	// constancy, and Gaussian curvature 1/r².
	h0 := geo.H[0]
	for k, h := range geo.H {
		if math.Abs(h-h0) > 1e-6*math.Abs(h0) {
			t.Fatalf("H not constant on sphere: %v vs %v at %d", h, h0, k)
		}
	}
	if math.Abs(math.Abs(h0)-1/r) > 1e-8 {
		t.Fatalf("|H| = %v want %v", math.Abs(h0), 1/r)
	}
	for _, kk := range geo.K {
		if math.Abs(kk-1/(r*r)) > 1e-6 {
			t.Fatalf("K = %v want %v", kk, 1/(r*r))
		}
	}
	// Normals radial.
	for k := 0; k < c.Grid.NumPoints(); k += 37 {
		pos := [3]float64{c.X[0][k] - 0.3, c.X[1][k] + 0.2, c.X[2][k] - 0.5}
		nr := math.Sqrt(dot(pos, pos))
		d := (geo.Normal[0][k]*pos[0] + geo.Normal[1][k]*pos[1] + geo.Normal[2][k]*pos[2]) / nr
		if math.Abs(math.Abs(d)-1) > 1e-8 {
			t.Fatalf("normal not radial at %d: %v", k, d)
		}
	}
}

func TestSphereAreaVolume(t *testing.T) {
	r := 0.8
	c := NewSphereCell(8, r, [3]float64{1, 2, 3})
	if a := c.Area(); math.Abs(a-4*math.Pi*r*r) > 1e-8 {
		t.Fatalf("area %v want %v", a, 4*math.Pi*r*r)
	}
	if v := c.Volume(); math.Abs(v-4*math.Pi*r*r*r/3) > 1e-8 {
		t.Fatalf("volume %v want %v", v, 4*math.Pi*r*r*r/3)
	}
	cen := c.Centroid()
	for d, want := range []float64{1, 2, 3} {
		if math.Abs(cen[d]-want) > 1e-8 {
			t.Fatalf("centroid %v", cen)
		}
	}
}

func TestBiconcaveShape(t *testing.T) {
	c := NewBiconcaveCell(16, 1, [3]float64{0, 0, 0}, nil)
	// The biconcave shape has reduced volume well below a sphere's.
	a := c.Area()
	v := c.Volume()
	reduced := 6 * math.Sqrt(math.Pi) * v / math.Pow(a, 1.5)
	if reduced < 0.55 || reduced > 0.75 {
		t.Fatalf("reduced volume %v outside biconcave range", reduced)
	}
}

func TestSurfaceLaplacianSphereEigen(t *testing.T) {
	// On the unit sphere, Δ_γ Y_n = −n(n+1) Y_n; use f = z = cosθ (n=1).
	c := NewSphereCell(12, 1, [3]float64{0, 0, 0})
	geo := c.ComputeGeometry()
	f := append([]float64(nil), c.X[2]...)
	lap := c.SurfaceLaplacian(geo, f)
	for k := 0; k < c.Grid.NumPoints(); k += 23 {
		want := -2 * f[k]
		if math.Abs(lap[k]-want) > 1e-5 {
			t.Fatalf("Δz at %d: %v want %v", k, lap[k], want)
		}
	}
}

func TestBendingForceSphereUniform(t *testing.T) {
	// On a sphere, Δ_γ H = 0 and H² = K, so the bending force vanishes.
	c := NewSphereCell(12, 1.3, [3]float64{0, 0, 0})
	geo := c.ComputeGeometry()
	f := c.BendingForce(0.01, geo)
	for d := 0; d < 3; d++ {
		for k := 0; k < len(f[d]); k += 31 {
			if math.Abs(f[d][k]) > 1e-6 {
				t.Fatalf("bending force on sphere not ~0: %v at %d", f[d][k], k)
			}
		}
	}
}

func TestSelfSingleLayerLaplaceAnalog(t *testing.T) {
	// Verify the singular quadrature against the known sphere identity for
	// the STOKES single layer with constant density: u = S[f](x) for f =
	// const e on the unit sphere gives u(x) = e·(1/(6πμ))... use the known
	// translational drag identity: ∫_S S(x,y) e dA(y) = (2/(3·8πμ))·4π e =
	// e/(3µ)·... Compute the exact value by direct high-order quadrature at
	// an interior point and compare the ON-SURFACE singular value against
	// the analytic continuity of the single layer (continuous across Γ):
	// evaluate at x on the surface via the singular rule, and at x slightly
	// inside via smooth upsampled quadrature; they must agree.
	p := 16
	c := NewSphereCell(p, 1, [3]float64{0, 0, 0})
	geo := c.ComputeGeometry()
	sq := NewSingularQuad(p)
	var f [3][]float64
	n := c.Grid.NumPoints()
	for d := 0; d < 3; d++ {
		f[d] = make([]float64, n)
	}
	for k := 0; k < n; k++ {
		f[0][k] = 1 // constant force density e_x
	}
	u := c.NewSelfOperator(sq, geo, 1.0).Apply(f)
	// Analytic: single layer of constant density over unit sphere:
	// u(x) = 1/(8πµ) ∫ (f/r + r(r·f)/r³) dA. On the surface this evaluates
	// to (2/(3µ))·f ... compute reference by 1D integral: for f = e_x and
	// |x| = 1: u_x = 1/(8πµ)∫ (1/r + rx²/r³) dA = (1/6 + 1/2)·(4π/(8πµ))·...
	// Use the classical result u = f·2/(3µ)·(1/2)?? Safer: high-resolution
	// smooth quadrature at x = 0.999·(surface point), where the field is
	// continuous up to O(1e-3) of its gradient.
	cref := NewSphereCell(32, 1, [3]float64{0, 0, 0})
	georef := cref.ComputeGeometry()
	wref := cref.QuadWeights(georef)
	ptsref := cref.Points()
	eval := func(x [3]float64) [3]float64 {
		var acc [3]float64
		for s := range ptsref {
			rx, ry, rz := x[0]-ptsref[s][0], x[1]-ptsref[s][1], x[2]-ptsref[s][2]
			r2 := rx*rx + ry*ry + rz*rz
			inv := 1 / math.Sqrt(r2)
			inv3 := inv / r2
			ws := wref[s] / (8 * math.Pi)
			acc[0] += ws * (1*inv + rx*rx*inv3)
			acc[1] += ws * (ry * rx * inv3)
			acc[2] += ws * (rz * rx * inv3)
		}
		return acc
	}
	// Compare at a handful of surface targets against the near-surface
	// reference (single layer is continuous across the boundary).
	for _, tk := range []int{0, 7, n / 2, n - 5} {
		x := [3]float64{c.X[0][tk], c.X[1][tk], c.X[2][tk]}
		xin := [3]float64{x[0] * 0.97, x[1] * 0.97, x[2] * 0.97}
		ref := eval(xin)
		got := [3]float64{u[0][tk], u[1][tk], u[2][tk]}
		for d := 0; d < 3; d++ {
			if math.Abs(got[d]-ref[d]) > 0.02*(0.1+math.Abs(ref[d])) {
				t.Fatalf("target %d dim %d: singular %v vs near-surface ref %v", tk, d, got[d], ref[d])
			}
		}
	}
}

func TestImplicitStepRelaxesPerturbedSphere(t *testing.T) {
	// A perturbed sphere under bending forces must decrease its bending
	// energy proxy (surface high-frequency content) and keep area bounded.
	p := 8
	c := NewSphereCell(p, 1, [3]float64{0, 0, 0})
	// Perturb with a Y_4-like bump.
	g := c.Grid
	for i := 0; i < g.Nlat; i++ {
		for j := 0; j < g.Nlon; j++ {
			k := g.Index(i, j)
			bump := 0.05 * math.Cos(4*g.Phi[j]) * math.Pow(math.Sin(g.Theta[i]), 4)
			for d := 0; d < 3; d++ {
				c.X[d][k] *= 1 + bump
			}
		}
	}
	area0 := c.Area()
	sq := NewSingularQuad(p)
	var b [3][]float64
	n := g.NumPoints()
	for d := 0; d < 3; d++ {
		b[d] = make([]float64, n)
	}
	prm := ImplicitParams{Dt: 1e-3, Mu: 1, KappaB: 0.05}
	for step := 0; step < 3; step++ {
		var noExt [3][]float64
		iters := c.ImplicitStep(sq, prm, b, noExt)
		if iters >= implicitGMRESMax {
			t.Fatalf("implicit GMRES hit the cap")
		}
	}
	area1 := c.Area()
	if math.Abs(area1-area0) > 0.05*area0 {
		t.Fatalf("area drifted: %v -> %v", area0, area1)
	}
	for k := 0; k < n; k++ {
		r := math.Sqrt(c.X[0][k]*c.X[0][k] + c.X[1][k]*c.X[1][k] + c.X[2][k]*c.X[2][k])
		if r < 0.5 || r > 1.5 {
			t.Fatalf("surface blew up: radius %v at node %d", r, k)
		}
	}
}

func TestSmoothSelfVelocityFiniteAndSymmetric(t *testing.T) {
	c := NewSphereCell(8, 1, [3]float64{0, 0, 0})
	geo := c.ComputeGeometry()
	n := c.Grid.NumPoints()
	var f [3][]float64
	for d := 0; d < 3; d++ {
		f[d] = make([]float64, n)
		for k := range f[d] {
			f[d][k] = 1
		}
	}
	u := c.SmoothSelfVelocity(geo, 1, f)
	for d := 0; d < 3; d++ {
		for k := range u[d] {
			if math.IsNaN(u[d][k]) || math.IsInf(u[d][k], 0) {
				t.Fatalf("non-finite smooth self velocity")
			}
		}
	}
}

// selfSingleLayerRef is the self-interaction written as its definition:
// for every target, rotate all seven fields (positions, force density, area
// element) to the target's pole and sum the weighted Stokeslet over the
// rotated grid.
func selfSingleLayerRef(c *Cell, sq *SingularQuad, geo *Geometry, mu float64, f [3][]float64) [3][]float64 {
	g := c.Grid
	n := g.NumPoints()
	jhat := make([]float64, n)
	for k := range jhat {
		jhat[k] = geo.W[k] / math.Sin(g.Theta[k/g.Nlon])
	}
	fields := [7][]float64{c.X[0], c.X[1], c.X[2], f[0], f[1], f[2], jhat}
	var out [3][]float64
	for d := range out {
		out[d] = make([]float64, n)
	}
	for tk := 0; tk < n; tk++ {
		it, jt := tk/g.Nlon, tk%g.Nlon
		var rot [7][]float64
		for d, fld := range fields {
			rot[d] = make([]float64, n)
			for r := 0; r < n; r++ {
				for k := 0; k < n; k++ {
					i, j := k/g.Nlon, k%g.Nlon
					rot[d][r] += sq.Rot[it][r*n+k] * fld[i*g.Nlon+(j+jt)%g.Nlon]
				}
			}
		}
		for r := 0; r < n; r++ {
			ry := [3]float64{c.X[0][tk] - rot[0][r], c.X[1][tk] - rot[1][r], c.X[2][tk] - rot[2][r]}
			r2 := dot(ry, ry)
			fv := [3]float64{rot[3][r], rot[4][r], rot[5][r]}
			scale := rot[6][r] * sq.WGS[r/g.Nlon] * sq.SinHalf[r/g.Nlon] / (8 * math.Pi * mu * math.Sqrt(r2))
			for d := 0; d < 3; d++ {
				out[d][tk] += scale * (fv[d] + ry[d]*dot(ry, fv)/r2)
			}
		}
	}
	return out
}

// shearedBiconcave is an off-centre, tilted biconcave cell with a smooth
// non-uniform force density on it.
func shearedBiconcave(p int) (*Cell, [3][]float64) {
	rot := RandomRotation(rand.New(rand.NewSource(3)))
	c := NewBiconcaveCell(p, 1, [3]float64{0.4, -1.1, 2.3}, &rot)
	n := c.Grid.NumPoints()
	var f [3][]float64
	for d := 0; d < 3; d++ {
		f[d] = make([]float64, n)
		for k := 0; k < n; k++ {
			f[d][k] = 0.3*float64(d+1) + math.Sin(c.X[(d+1)%3][k]) - 0.5*c.X[d][k]*c.X[(d+2)%3][k]
		}
	}
	return c, f
}

// The assembled operator applies the same linear map as the matrix-free
// definition; only the order of two sums differs.
func TestSelfOperatorMatchesDefinition(t *testing.T) {
	for _, p := range []int{4, 7} {
		c, f := shearedBiconcave(p)
		geo := c.ComputeGeometry()
		sq := NewSingularQuad(p)
		op := c.NewSelfOperator(sq, geo, 1.3)
		got := op.Apply(f)
		op.Release()
		want := selfSingleLayerRef(c, sq, geo, 1.3, f)
		for d := 0; d < 3; d++ {
			for k := range want[d] {
				if math.Abs(got[d][k]-want[d][k]) > 1e-13 {
					t.Fatalf("p=%d: u[%d][%d] = %v, definition gives %v", p, d, k, got[d][k], want[d][k])
				}
			}
		}
	}
}

// The operator is assembled target by target on the worker pool, each
// target writing its own rows: same bits on one core and on four.
func TestSelfOperatorBitIdenticalAcrossCoreCounts(t *testing.T) {
	c, f := shearedBiconcave(6)
	geo := c.ComputeGeometry()
	sq := NewSingularQuad(6)
	runAt := func(procs int) [3][]float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		op := c.NewSelfOperator(sq, geo, 1)
		defer op.Release()
		return op.Apply(f)
	}
	if one, four := runAt(1), runAt(4); !reflect.DeepEqual(one, four) {
		t.Fatal("self-interaction differs between GOMAXPROCS 1 and 4")
	}
}

// Moving the cell and the force density by one rigid motion moves the
// self-induced velocity with them: u(QX + b, Qf) = Q u(X, f).
func TestSelfOperatorRigidMotion(t *testing.T) {
	const p = 6
	c, f := shearedBiconcave(p)
	sq := NewSingularQuad(p)
	apply := func(c *Cell, f [3][]float64) [3][]float64 {
		op := c.NewSelfOperator(sq, c.ComputeGeometry(), 1)
		defer op.Release()
		return op.Apply(f)
	}
	u := apply(c, f)

	q := RandomRotation(rand.New(rand.NewSource(11)))
	shift := [3]float64{-2, 0.7, 5}
	n := c.Grid.NumPoints()
	rotate := func(v [3][]float64, shift [3]float64) [3][]float64 {
		var out [3][]float64
		for a := 0; a < 3; a++ {
			out[a] = make([]float64, n)
			for k := 0; k < n; k++ {
				out[a][k] = q[3*a]*v[0][k] + q[3*a+1]*v[1][k] + q[3*a+2]*v[2][k] + shift[a]
			}
		}
		return out
	}
	moved := NewCell(p)
	moved.X = rotate(c.X, shift)
	got := apply(moved, rotate(f, [3]float64{}))
	want := rotate(u, [3]float64{})
	for d := 0; d < 3; d++ {
		for k := 0; k < n; k++ {
			if math.Abs(got[d][k]-want[d][k]) > 1e-12 {
				t.Fatalf("u[%d][%d] = %v after the motion, rotated original %v", d, k, got[d][k], want[d][k])
			}
		}
	}
}

// shearStep advances c by one implicit step in the shear flow u = (z, 0, 0)
// with the dense-suspension workload's parameters.
func shearStep(c *Cell, sq *SingularQuad) int {
	n := c.Grid.NumPoints()
	b := [3][]float64{append([]float64(nil), c.X[2]...), make([]float64, n), make([]float64, n)}
	return c.ImplicitStep(sq, ImplicitParams{Dt: 0.05, Mu: 1, KappaB: 0.01}, b, [3][]float64{})
}

// The per-cell solve needs as many GMRES iterations with the assembled
// operator as it did with the matrix-free sum (4 per step, measured before
// the operator was assembled).
func TestImplicitStepIterationsInShear(t *testing.T) {
	c := NewBiconcaveCell(4, 1, [3]float64{0, 0, 0.6}, nil)
	sq := NewSingularQuad(4)
	for step := 1; step <= 3; step++ {
		if iters := shearStep(c, sq); iters != 4 {
			t.Fatalf("step %d: %d GMRES iterations, want 4", step, iters)
		}
	}
}

// One implicit step allocates its work vectors and nothing the size of the
// operator: the 9n² matrix and the assembly scratch come from the
// quadrature's pool. The Krylov basis is sized by the iterations taken
// (4 here), not by the restart length (60).
func TestImplicitStepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	sq := NewSingularQuad(4)
	c := NewBiconcaveCell(4, 1, [3]float64{0, 0, 0.6}, nil)
	n := c.Grid.NumPoints()
	shearStep(c.Copy(), sq) // fill the pools
	var m0, m1 runtime.MemStats
	const runs = 20
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(runs, func() { shearStep(c.Copy(), sq) })
	runtime.ReadMemStats(&m1)
	perRun := float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1)
	opBytes := float64(8 * 9 * n * n)
	t.Logf("%.0f allocations, %.0f bytes per step (operator: %.0f bytes)", allocs, perRun, opBytes)
	if perRun > opBytes {
		t.Fatalf("an implicit step allocates %.0f bytes, more than one operator (%.0f): the pool is not holding", perRun, opBytes)
	}
	if allocs > 800 {
		t.Fatalf("an implicit step makes %.0f allocations, want at most 800", allocs)
	}
}
