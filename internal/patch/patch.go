// Package patch implements the high-order tensor-product polynomial patches
// that discretize the blood vessel surface Γ (paper §3.1): evaluation and
// differentiation on Clenshaw–Curtis node grids, exact 4-way subdivision
// (the coarse→fine refinement of §3.1 and the Bezier-style refinement of
// §5.2), area/size metrics, bounding boxes inflated for near-zone detection,
// and the Newton closest-point solver of §3.3 step d.
package patch

import (
	"math"
	"sync"

	"rbcflow/internal/quadrature"
)

// basis caches the 1D node set for a polynomial order.
type basis struct {
	q     int // polynomial order; q+1 nodes
	nodes []float64
	bw    []float64   // barycentric weights
	diff  [][]float64 // spectral differentiation matrix
	diffF []float64   // diff, row-major in one slice
	ccW   []float64   // Clenshaw–Curtis quadrature weights
}

// basisCache maps order -> *basis. Every Eval / Derivs looks its basis up,
// from every pool thread at once, so the read path must not take a lock:
// a sync.Map serves settled keys with one atomic load. Two first users of an
// order may both build it; the build is deterministic and one copy wins.
var basisCache sync.Map

func getBasis(q int) *basis {
	if b, ok := basisCache.Load(q); ok {
		return b.(*basis)
	}
	nodes, w := quadrature.ClenshawCurtis(q)
	b := &basis{q: q, nodes: nodes, ccW: w}
	b.bw = quadrature.BaryWeights(nodes)
	b.diff = quadrature.DiffMatrix(nodes, b.bw)
	for _, row := range b.diff {
		b.diffF = append(b.diffF, row...)
	}
	won, _ := basisCache.LoadOrStore(q, b)
	return won.(*basis)
}

// stackNodes is the largest node count whose interpolation coefficients
// live in a caller's stack buffer (orders above it fall back to the heap).
const stackNodes = 16

// coeffs returns the Lagrange coefficients of parameter t on the basis
// nodes, in buf when they fit.
func (b *basis) coeffs(buf *[stackNodes]float64, t float64) []float64 {
	var c []float64
	if n := len(b.nodes); n <= stackNodes {
		c = buf[:n]
	} else {
		c = make([]float64, n)
	}
	quadrature.LagrangeCoeffsInto(c, b.nodes, b.bw, t)
	return c
}

// Nodes returns the 1D Clenshaw–Curtis nodes used by order-q patches.
func Nodes(q int) []float64 { return getBasis(q).nodes }

// QuadWeights returns the 1D Clenshaw–Curtis weights for order q.
func QuadWeights(q int) []float64 { return getBasis(q).ccW }

// Patch is a polynomial map P: [-1,1]² → R³ stored by its values on the
// (q+1)×(q+1) tensor Clenshaw–Curtis grid, row-major with u varying slowest.
type Patch struct {
	Q   int
	Val [][3]float64 // len (Q+1)^2; Val[i*(Q+1)+j] = P(nodes[i], nodes[j])

	derivOnce sync.Once
	duP, dvP  *Patch // cached derivative fields

	seedOnce sync.Once
	seedPos  [seeds * seeds][3]float64 // ClosestPoint's coarse sample grid

	encOnce      sync.Once
	encLo, encHi [3]float64 // Enclosure's box
}

// FromFunc samples the surface map f on the node grid of order q.
func FromFunc(q int, f func(u, v float64) [3]float64) *Patch {
	b := getBasis(q)
	n := q + 1
	p := &Patch{Q: q, Val: make([][3]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p.Val[i*n+j] = f(b.nodes[i], b.nodes[j])
		}
	}
	return p
}

// Eval evaluates the patch at parameter (u, v).
func (p *Patch) Eval(u, v float64) [3]float64 {
	b := getBasis(p.Q)
	var bu, bv [stackNodes]float64
	return p.contract(b.coeffs(&bu, u), b.coeffs(&bv, v))
}

func (p *Patch) contract(cu, cv []float64) [3]float64 {
	n := p.Q + 1
	var out [3]float64
	for i := 0; i < n; i++ {
		ci := cu[i]
		if ci == 0 {
			continue
		}
		row := p.Val[i*n : (i+1)*n]
		var rx, ry, rz float64
		for j := 0; j < n; j++ {
			cj := cv[j]
			rx += cj * row[j][0]
			ry += cj * row[j][1]
			rz += cj * row[j][2]
		}
		out[0] += ci * rx
		out[1] += ci * ry
		out[2] += ci * rz
	}
	return out
}

// nodeDeriv returns the nodal values of ∂P/∂u and ∂P/∂v.
func (p *Patch) nodeDeriv() (du, dv [][3]float64) {
	b := getBasis(p.Q)
	n := p.Q + 1
	du = make([][3]float64, n*n)
	dv = make([][3]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var su, sv [3]float64
			for k := 0; k < n; k++ {
				dik := b.diff[i][k]
				djk := b.diff[j][k]
				for d := 0; d < 3; d++ {
					su[d] += dik * p.Val[k*n+j][d]
					sv[d] += djk * p.Val[i*n+k][d]
				}
			}
			du[i*n+j] = su
			dv[i*n+j] = sv
		}
	}
	return du, dv
}

// Derivs evaluates position and first parametric derivatives at (u, v).
func (p *Patch) Derivs(u, v float64) (pos, du, dv [3]float64) {
	b := getBasis(p.Q)
	var bu, bv [stackNodes]float64
	cu, cv := b.coeffs(&bu, u), b.coeffs(&bv, v)
	pos = p.contract(cu, cv)
	duN, dvN := p.derivPatches()
	du = duN.contract(cu, cv)
	dv = dvN.contract(cu, cv)
	return pos, du, dv
}

// derivPatches returns the derivative fields as patches (cached).
func (p *Patch) derivPatches() (*Patch, *Patch) {
	p.derivOnce.Do(func() {
		duN, dvN := p.nodeDeriv()
		p.duP = &Patch{Q: p.Q, Val: duN}
		p.dvP = &Patch{Q: p.Q, Val: dvN}
	})
	return p.duP, p.dvP
}

// tensorFields is the one tensor-grid evaluator: positions always, both
// derivative fields when du is non-nil. lu and lv tabulate the nu u lines
// and nv v lines (TabulateLines, or TabulateFrameLines when du is non-nil:
// c(t) the Lagrange coefficient row of a line and c'(t) = c(t)·D its
// derivative row). One u line of the grid costs two contractions of the
// value grid over u (T = c·V, T' = c'·V) and three over v (pos = T·cv,
// ∂v = T·cv', ∂u = T'·cv) — no derivative patches, and V is streamed once
// per line. It is the frame and sample kernels' reference: the conversions
// round every product on its own.
func (p *Patch) tensorFields(lu, lv []float64, nu, nv int, pos, du, dv [][3]float64) {
	n := p.Q + 1
	derivs := du != nil
	var tBuf, dtBuf [stackNodes][3]float64
	t, dt := tBuf[:], dtBuf[:]
	if n > stackNodes {
		t, dt = make([][3]float64, n), make([][3]float64, n)
	}
	t, dt = t[:n], dt[:n]
	for i := 0; i < nu; i++ {
		// Contract over u: t[k] = Σ_a c[a]·V[a][k] (and dt with c').
		for k := range t {
			var sx, sy, sz, dx, dy, dz float64
			for a := 0; a < n; a++ {
				c, val := lu[a*nu+i], &p.Val[a*n+k]
				sx += float64(c * val[0])
				sy += float64(c * val[1])
				sz += float64(c * val[2])
				if derivs {
					dc := lu[(n+a)*nu+i]
					dx += float64(dc * val[0])
					dy += float64(dc * val[1])
					dz += float64(dc * val[2])
				}
			}
			t[k], dt[k] = [3]float64{sx, sy, sz}, [3]float64{dx, dy, dz}
		}
		// Contract over v.
		for j := 0; j < nv; j++ {
			var px, py, pz, ux, uy, uz, vx, vy, vz float64
			for k := 0; k < n; k++ {
				c := lv[k*nv+j]
				px += float64(c * t[k][0])
				py += float64(c * t[k][1])
				pz += float64(c * t[k][2])
				if derivs {
					dc := lv[(n+k)*nv+j]
					ux += float64(c * dt[k][0])
					uy += float64(c * dt[k][1])
					uz += float64(c * dt[k][2])
					vx += float64(dc * t[k][0])
					vy += float64(dc * t[k][1])
					vz += float64(dc * t[k][2])
				}
			}
			pos[i*nv+j] = [3]float64{px, py, pz}
			if derivs {
				du[i*nv+j] = [3]float64{ux, uy, uz}
				dv[i*nv+j] = [3]float64{vx, vy, vz}
			}
		}
	}
}

// Normal returns the unit normal du × dv / |du × dv| at (u, v).
func (p *Patch) Normal(u, v float64) [3]float64 {
	_, du, dv := p.Derivs(u, v)
	n := Cross(du, dv)
	return Normalize(n)
}

// Subpatch restricts the patch to the parameter rectangle
// [u0,u1] × [v0,v1], returning an equivalent patch of the same order
// (exact: resampling a polynomial). The sub-patch's boundary curves are the
// restrictions of the parent's, so a set of sub-patches partitioning the
// parent's parameter square covers exactly the parent's surface.
func (p *Patch) Subpatch(u0, u1, v0, v1 float64) *Patch {
	return FromFunc(p.Q, func(u, v float64) [3]float64 {
		uu := u0 + (u1-u0)*(u+1)/2
		vv := v0 + (v1-v0)*(v+1)/2
		return p.Eval(uu, vv)
	})
}

// Subdivide splits the patch into 4 equivalent sub-patches over the
// quadrants of [-1,1]² (exact: resampling a polynomial). Order of children:
// (u−,v−), (u−,v+), (u+,v−), (u+,v+).
func (p *Patch) Subdivide() [4]*Patch {
	return [4]*Patch{
		p.Subpatch(-1, 0, -1, 0),
		p.Subpatch(-1, 0, 0, 1),
		p.Subpatch(0, 1, -1, 0),
		p.Subpatch(0, 1, 0, 1),
	}
}

// FromFuncOriented builds the patch from f, transposing the (u, v)
// parameter order if needed so that du×dv at the patch center aligns with
// the reference outward direction ref evaluated at the center point. The
// returned flag reports whether the transpose happened — callers that
// track parameter-space features (e.g. which edge lies on a rim) use it to
// remap them. This is the single home of the orientation-flip rule shared
// by the vessel cap and network junction builders.
func FromFuncOriented(order int, f func(u, v float64) [3]float64, ref func(x [3]float64) [3]float64) (*Patch, bool) {
	p := FromFunc(order, f)
	if DotV(p.Normal(0, 0), ref(p.Eval(0, 0))) < 0 {
		return FromFunc(order, func(u, v float64) [3]float64 { return f(v, u) }), true
	}
	return p, false
}

// Edge names one boundary edge of a patch's parameter square.
type Edge int

const (
	// EdgeULo is the u = −1 edge, EdgeUHi the u = +1 edge, and likewise
	// for v.
	EdgeULo Edge = iota
	EdgeUHi
	EdgeVLo
	EdgeVHi
)

// SplitEdgeGraded replaces the patch by a stack of levels+1 sub-patches
// whose widths shrink by quadrature.GradingRatio toward the given edge —
// the edge-graded rim discretization of a patch bordering a cap/barrel rim.
// The graded edge curve and the two side curves are preserved exactly
// (polynomial resampling), so a watertight patch union stays watertight
// after splitting. levels <= 0 returns the patch unchanged.
func (p *Patch) SplitEdgeGraded(edge Edge, levels int) []*Patch {
	if levels <= 0 {
		return []*Patch{p}
	}
	// GradedBreakpoints grades toward the interval start; mirror for the
	// high edges.
	bks := quadrature.GradedBreakpoints(-1, 1, levels)
	out := make([]*Patch, 0, len(bks)-1)
	for i := 0; i+1 < len(bks); i++ {
		a, b := bks[i], bks[i+1]
		switch edge {
		case EdgeULo:
			out = append(out, p.Subpatch(a, b, -1, 1))
		case EdgeUHi:
			out = append(out, p.Subpatch(-b, -a, -1, 1))
		case EdgeVLo:
			out = append(out, p.Subpatch(-1, 1, a, b))
		default: // EdgeVHi
			out = append(out, p.Subpatch(-1, 1, -b, -a))
		}
	}
	return out
}

// Area computes the surface area ∫∫ |P_u × P_v| du dv by Clenshaw–Curtis
// quadrature on the node grid.
func (p *Patch) Area() float64 {
	b := getBasis(p.Q)
	n := p.Q + 1
	duN, dvN := p.nodeDeriv()
	var area float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			j3 := Cross(duN[i*n+j], dvN[i*n+j])
			area += b.ccW[i] * b.ccW[j] * Norm(j3)
		}
	}
	return area
}

// Size returns sqrt(Area), the patch size L (paper §5.1).
func (p *Patch) Size() float64 { return math.Sqrt(p.Area()) }

// BBox returns the axis-aligned bounding box of the node values, inflated
// by pad in every direction (pad = d_ε gives the near-zone box B_{P,ε} of
// paper §3.3 step a).
func (p *Patch) BBox(pad float64) (lo, hi [3]float64) {
	lo = [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi = [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for _, v := range p.Val {
		for d := 0; d < 3; d++ {
			if v[d] < lo[d] {
				lo[d] = v[d]
			}
			if v[d] > hi[d] {
				hi[d] = v[d]
			}
		}
	}
	for d := 0; d < 3; d++ {
		lo[d] -= pad
		hi[d] += pad
	}
	return lo, hi
}

// Enclosure returns an axis-aligned box that contains the whole polynomial
// surface P([-1,1]²) — BBox bounds only the node values, which a polynomial
// overshoots between nodes. It is the bounding box of a uniform (4Q+1)²
// sample, inflated by that grid's largest second difference: the surface
// leaves the sample's bilinear interpolant by at most an eighth of the
// second derivative times the spacing squared per direction, which the
// second difference estimates, so the pad carries a factor of about four in
// hand. The patch is rigid: computed once and shared by every query.
func (p *Patch) Enclosure() (lo, hi [3]float64) {
	p.encOnce.Do(func() {
		m := 4*p.Q + 1
		ts := make([]float64, m)
		for i := range ts {
			ts[i] = -1 + 2*float64(i)/float64(m-1)
		}
		lines := make([]float64, (p.Q+1)*m)
		TabulateLines(p.Q, ts, lines)
		pos := make([][3]float64, m*m)
		p.TensorEval(lines, lines, pos)
		lo := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
		hi := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
		var pad float64
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				x := pos[i*m+j]
				for d := 0; d < 3; d++ {
					lo[d] = math.Min(lo[d], x[d])
					hi[d] = math.Max(hi[d], x[d])
					if i > 0 && i < m-1 {
						pad = math.Max(pad, math.Abs(pos[(i-1)*m+j][d]-2*x[d]+pos[(i+1)*m+j][d]))
					}
					if j > 0 && j < m-1 {
						pad = math.Max(pad, math.Abs(pos[i*m+j-1][d]-2*x[d]+pos[i*m+j+1][d]))
					}
				}
			}
		}
		for d := 0; d < 3; d++ {
			p.encLo[d], p.encHi[d] = lo[d]-pad, hi[d]+pad
		}
	})
	return p.encLo, p.encHi
}

// seeds is the per-dimension size of ClosestPoint's coarse sample grid.
const seeds = 5

func seedParam(i int) float64 { return -1 + 2*float64(i)/(seeds-1) }

// seedGrid returns the patch's positions on the seeds × seeds sample grid.
// The patch is rigid, so they are evaluated once and shared by every query.
func (p *Patch) seedGrid() *[seeds * seeds][3]float64 {
	p.seedOnce.Do(func() {
		for i := 0; i < seeds; i++ {
			for j := 0; j < seeds; j++ {
				p.seedPos[i*seeds+j] = p.Eval(seedParam(i), seedParam(j))
			}
		}
	})
	return &p.seedPos
}

// ClosestPoint finds min_{(u,v) ∈ [-1,1]²} |x − P(u,v)| by projected Newton
// with backtracking line search from the best point of a coarse sample grid
// (paper §3.3 step d). Returns the parameters, the closest point and the
// distance. Safe for concurrent use and allocation-free up to order
// stackNodes−1.
func (p *Patch) ClosestPoint(x [3]float64) (u, v float64, y [3]float64, dist float64) {
	// Coarse seeding.
	best := math.Inf(1)
	for k, s := range p.seedGrid() {
		if d2 := dist2(s, x); d2 < best {
			best, u, v = d2, seedParam(k/seeds), seedParam(k%seeds)
		}
	}
	obj := func(u, v float64) float64 { return dist2(p.Eval(u, v), x) }
	cur := best
	for iter := 0; iter < 30; iter++ {
		pos, du, dv := p.Derivs(u, v)
		r := [3]float64{x[0] - pos[0], x[1] - pos[1], x[2] - pos[2]}
		// Gradient of 0.5|r|²: g = -(r·P_u, r·P_v).
		gu, gv := -DotV(r, du), -DotV(r, dv)
		// Gauss-Newton Hessian (drops second-derivative term; positive
		// semidefinite and robust for surface projection).
		huu := DotV(du, du)
		hvv := DotV(dv, dv)
		huv := DotV(du, dv)
		det := huu*hvv - huv*huv
		var su, sv float64
		if det > 1e-14*huu*hvv+1e-300 {
			su = -(hvv*gu - huv*gv) / det
			sv = -(-huv*gu + huu*gv) / det
		} else {
			su, sv = -gu, -gv
		}
		// Backtracking with projection onto the parameter square.
		step := 1.0
		improved := false
		for ls := 0; ls < 20; ls++ {
			nu := clamp(u+step*su, -1, 1)
			nv := clamp(v+step*sv, -1, 1)
			val := obj(nu, nv)
			if val < cur {
				u, v, cur = nu, nv, val
				improved = true
				break
			}
			step /= 2
		}
		if !improved || math.Abs(gu)+math.Abs(gv) < 1e-14 {
			break
		}
	}
	y = p.Eval(u, v)
	return u, v, y, math.Sqrt(dist2(y, x))
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func dist2(a, b [3]float64) float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return dx*dx + dy*dy + dz*dz
}

// Cross returns a × b.
func Cross(a, b [3]float64) [3]float64 {
	return [3]float64{
		a[1]*b[2] - a[2]*b[1],
		a[2]*b[0] - a[0]*b[2],
		a[0]*b[1] - a[1]*b[0],
	}
}

// DotV returns a · b.
func DotV(a, b [3]float64) float64 { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }

// Norm returns |a|.
func Norm(a [3]float64) float64 { return math.Sqrt(DotV(a, a)) }

// Normalize returns a/|a| (zero vector unchanged).
func Normalize(a [3]float64) [3]float64 {
	n := Norm(a)
	if n == 0 {
		return a
	}
	return [3]float64{a[0] / n, a[1] / n, a[2] / n}
}
