package rbc

import (
	"math"
	"sync"

	"rbcflow/internal/par"
	"rbcflow/internal/sht"
)

// SingularQuad holds the precomputed pole-rotation singular quadrature for
// the self-interaction single-layer potential (the [14]/[48] scheme; the
// rotation operators are shape-independent and precomputed once per
// spherical-harmonic order, as in [28], shared by every cell and time step).
type SingularQuad struct {
	P    int
	Grid *sht.Grid
	// Rot[i] is the (npts × npts) operator taking grid values of a field to
	// its values at the grid rotated so that (θ_i, 0) maps to the north
	// pole.
	Rot []([]float64)
	// WGS[i'] are the per-latitude Graham–Sloan-type weights integrating
	// g(y)/(2 sin(θ'/2)) over the rotated sphere exactly for band-limited g.
	WGS []float64
	// SinHalf[i'] = 2 sin(θ'_i/2) at the rotated grid latitudes.
	SinHalf []float64

	// Assembled self-interaction operators (9n² floats each) and the
	// assembly's work space, recycled across cells and steps.
	ops, scratch sync.Pool
}

var (
	sqMu    sync.Mutex
	sqCache = map[int]*SingularQuad{}
)

// NewSingularQuad builds (and caches) the quadrature for order p.
func NewSingularQuad(p int) *SingularQuad {
	sqMu.Lock()
	defer sqMu.Unlock()
	if sq, ok := sqCache[p]; ok {
		return sq
	}
	g := sht.NewGrid(p)
	n := g.NumPoints()
	nc := sht.NumCoeffs(p)
	sq := &SingularQuad{P: p, Grid: g}

	// Forward-transform matrix F: values -> packed (A, B) coefficients.
	// Columns are transforms of nodal deltas.
	F := make([]float64, 2*nc*n)
	delta := make([]float64, n)
	for col := 0; col < n; col++ {
		delta[col] = 1
		co := g.Forward(delta)
		delta[col] = 0
		for idx := 0; idx < nc; idx++ {
			F[idx*n+col] = co.A[idx]
			F[(nc+idx)*n+col] = co.B[idx]
		}
	}

	// Per-latitude rotation: target (θ_t, 0) -> north pole. The rotation is
	// about the y-axis by angle θ_t: a grid point with rotated-frame
	// direction d' has original direction d = R_y(θ_t) d'.
	sq.Rot = make([][]float64, g.Nlat)
	for it := 0; it < g.Nlat; it++ {
		tt := g.Theta[it]
		ct, st := math.Cos(tt), math.Sin(tt)
		// Evaluation matrix E: coefficients -> values at rotated points.
		E := make([]float64, n*2*nc)
		plm := make([]float64, nc)
		for gi := 0; gi < g.Nlat; gi++ {
			for gj := 0; gj < g.Nlon; gj++ {
				// Rotated-frame direction.
				sp, cp := math.Sin(g.Phi[gj]), math.Cos(g.Phi[gj])
				sθ, cθ := math.Sin(g.Theta[gi]), math.Cos(g.Theta[gi])
				d := [3]float64{sθ * cp, sθ * sp, cθ}
				// Original-frame direction: rotate by θ_t about y.
				o := [3]float64{float64(ct*d[0]) + float64(st*d[2]), d[1], float64(-st*d[0]) + float64(ct*d[2])}
				theta := math.Acos(clamp(o[2], -1, 1))
				phi := math.Atan2(o[1], o[0])
				sht.NormalizedLegendre(p, math.Cos(theta), plm)
				row := E[(gi*g.Nlon+gj)*2*nc:]
				for nn := 0; nn <= p; nn++ {
					base := nn * (nn + 1) / 2
					row[base] = plm[base] * sqrt2PiInv
					for m := 1; m <= nn; m++ {
						fm := float64(m)
						row[base+m] = plm[base+m] * sqrtPiInv * math.Cos(fm*phi)
						row[nc+base+m] = plm[base+m] * sqrtPiInv * math.Sin(fm*phi)
					}
				}
			}
		}
		// Rot = E · F  (n × n).
		R := make([]float64, n*n)
		for r := 0; r < n; r++ {
			erow := E[r*2*nc : (r+1)*2*nc]
			rrow := R[r*n : (r+1)*n]
			for k := 0; k < 2*nc; k++ {
				ek := erow[k]
				if ek == 0 {
					continue
				}
				frow := F[k*n : (k+1)*n]
				for cI := 0; cI < n; cI++ {
					rrow[cI] += float64(ek * frow[cI])
				}
			}
		}
		sq.Rot[it] = R
	}

	// Graham–Sloan-type weights: for band-limited h,
	// ∫ h(y)/(2 sin(θ/2)) dΩ = Σ_n A_{n0}(h) √(4π/(2n+1)), which as grid
	// weights is w_i Δφ Σ_n P̄_n⁰(x_i) √2/√(2n+1), independent of longitude.
	dphi := 2 * math.Pi / float64(g.Nlon)
	sq.WGS = make([]float64, g.Nlat)
	sq.SinHalf = make([]float64, g.Nlat)
	plm := make([]float64, nc)
	for i := 0; i < g.Nlat; i++ {
		sht.NormalizedLegendre(p, g.X[i], plm)
		var s float64
		for nn := 0; nn <= p; nn++ {
			s += plm[nn*(nn+1)/2] * math.Sqrt2 / math.Sqrt(2*float64(nn)+1)
		}
		sq.WGS[i] = g.Wlat[i] * dphi * s
		sq.SinHalf[i] = 2 * math.Sin(g.Theta[i]/2)
	}
	sqCache[p] = sq
	return sq
}

const (
	sqrt2PiInv = 0.3989422804014327
	sqrtPiInv  = 0.5641895835477563
)

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// SelfOperator is the single-layer self-interaction of one cell at frozen
// geometry,
//
//	u(x_t) = ∫_γ S(x_t, y) f(y) dA(y)  at every grid point x_t,
//
// assembled as a dense 3n × 3n matrix acting on component-major force
// densities (per unit area). For each target all fields are rotated so the
// target sits at the north pole (longitude shift + precomputed latitude
// rotation R_t); the integrand is split as F(y)/(2 sin(θ'/2)) with F smooth,
// and the Graham–Sloan weights integrate the 1/|p−y| singularity spectrally.
// Only f depends on the right-hand side, and linearly: with M_r the weighted
// 3×3 Stokeslet block at rotated node r,
//
//	u_a(x_t) = Σ_r Σ_b M_r[a][b] (R_t f_b)(r) = Σ_b Σ_k (Σ_r M_r[a][b] R_t[r,k]) f_b(k),
//
// so the rows of target t are six (M is symmetric) M-weighted combinations
// of the rows of R_t. Assembly costs 4n³ (rotating positions and the area
// element) + 6n³; an application is a 9n² mat-vec.
//
// The matrix is stored in groups of four consecutive targets, interleaved:
// entry (a, t, b, k) sits at s[(a·n + t−t%4)·3n + (b·n + k)·4 + t%4], so an
// application sums four targets in the four lanes of one vector and each
// assembly chunk of four targets fills one contiguous block per a.
type SelfOperator struct {
	sq  *SingularQuad
	n   int
	s   []float64
	pts [][4]float64 // positions and area-element ratio Ĵ = W/sinθ per node
}

// opScratch is the per-chunk work space of the assembly.
type opScratch struct {
	shifted, rot [][4]float64 // pts, longitude-shifted, then rotated
	m            [][6]float64 // Stokeslet block per rotated node: entries 00 01 02 11 12 22
	// rows holds the chunk's targets' M-weighted rows of R, 6n each: the
	// same six entries, in the target's shifted longitudes.
	rows []float64
}

// targetGrain is the target chunk of the assembly loop: one target costs
// 10n² flops, so a few of them amortise a chunk's hand-off. It is also the
// storage's interleave width, so each chunk owns whole groups.
const targetGrain = 4

// symEntry maps (a, b) to the entry of the symmetric Stokeslet block.
var symEntry = [3][3]int{{0, 1, 2}, {1, 3, 4}, {2, 4, 5}}

// NewSelfOperator assembles the self-interaction of c at geometry geo and
// viscosity mu. Targets are assembled in chunks of four on the node's
// worker pool, each writing only its own group, so the operator is
// bit-identical for any core count. Release returns the storage for reuse.
func (c *Cell) NewSelfOperator(sq *SingularQuad, geo *Geometry, mu float64) *SelfOperator {
	g := c.Grid
	n := g.NumPoints()
	// n = 2p(p+1): whole groups of four at every order.
	if n%targetGrain != 0 {
		panic("rbc: grid size is not a multiple of the self-operator's group width")
	}
	op, _ := sq.ops.Get().(*SelfOperator)
	if op == nil {
		op = &SelfOperator{sq: sq, n: n, s: make([]float64, 9*n*n), pts: make([][4]float64, n)}
	}
	for i := 0; i < g.Nlat; i++ {
		st := math.Sin(g.Theta[i])
		for j := 0; j < g.Nlon; j++ {
			k := g.Index(i, j)
			op.pts[k] = [4]float64{c.X[0][k], c.X[1][k], c.X[2][k], geo.W[k] / st}
		}
	}
	c8pi := 1 / (8 * math.Pi * mu)
	par.For(n, targetGrain, func(lo, hi int) {
		ws, _ := sq.scratch.Get().(*opScratch)
		if ws == nil {
			ws = &opScratch{shifted: make([][4]float64, n), rot: make([][4]float64, n), m: make([][6]float64, n),
				rows: make([]float64, targetGrain*6*n)}
		}
		for tk := lo; tk < hi; tk++ {
			op.assembleTarget(ws, tk, ws.rows[(tk-lo)*6*n:][:6*n], c8pi)
		}
		op.scatter(ws, lo)
		sq.scratch.Put(ws)
	})
	return op
}

// assembleTarget writes the six M-weighted rows of target tk, in its
// shifted longitudes, into rows.
func (op *SelfOperator) assembleTarget(ws *opScratch, tk int, rows []float64, c8pi float64) {
	sq, n := op.sq, op.n
	g := sq.Grid
	nlon := g.Nlon
	it, jt := tk/nlon, tk%nlon
	R := sq.Rot[it]
	x := op.pts[tk]
	// Rotate the geometry: shift longitudes so the target is at φ = 0 (two
	// runs per latitude row), then apply R to the four fields side by side.
	for i := 0; i < n; i += nlon {
		row := op.pts[i : i+nlon]
		copy(ws.shifted[i:], row[jt:])
		copy(ws.shifted[i+nlon-jt:], row[:jt])
	}
	if useAVX2 {
		rotateAVX2(ws.rot, R, ws.shifted)
	} else {
		rotateGo(ws.rot, R, ws.shifted)
	}
	// The weighted Stokeslet block M_r at every rotated node (six entries;
	// zero where the node coincides with the target).
	for gi := 0; gi < g.Nlat; gi++ {
		w := sq.WGS[gi]
		sh := sq.SinHalf[gi]
		for gj := 0; gj < nlon; gj++ {
			r := gi*nlon + gj
			y := &ws.rot[r]
			ry := [3]float64{x[0] - y[0], x[1] - y[1], x[2] - y[2]}
			r2 := float64(ry[0]*ry[0]) + float64(ry[1]*ry[1]) + float64(ry[2]*ry[2])
			var scale, q float64
			if r2 >= 1e-28 {
				// S(x,y) · |x−y| (smooth scaling by the chordal ratio).
				scale = c8pi * y[3] * w * sh / math.Sqrt(r2)
				q = scale / r2
			}
			ws.m[r] = [6]float64{scale + float64(q*ry[0]*ry[0]), q * ry[0] * ry[1], q * ry[0] * ry[2],
				scale + float64(q*ry[1]*ry[1]), q * ry[1] * ry[2], scale + float64(q*ry[2]*ry[2])}
		}
	}
	if useAVX2 {
		rowsAVX2(rows, R, ws.m)
	} else {
		rowsGo(rows, R, ws.m)
	}
}

// rotateGo sets dst[r] = Σ_k R[r,k]·src[k], the four fields of a node side
// by side: the portable loop, and the reference of rotateAVX2.
func rotateGo(dst [][4]float64, R []float64, src [][4]float64) {
	n := len(src)
	for r := range dst[:n] {
		var s0, s1, s2, s3 float64
		for k, rk := range R[r*n : (r+1)*n] {
			v := &src[k]
			s0 += float64(rk * v[0])
			s1 += float64(rk * v[1])
			s2 += float64(rk * v[2])
			s3 += float64(rk * v[3])
		}
		dst[r] = [4]float64{s0, s1, s2, s3}
	}
}

// rowsGo sets rows[e·n+k] = Σ_r m[r][e]·R[r,k] for the six entries e, two
// rows of R per pass (n is even) with the pair summed before it is added:
// the portable loop, and the reference of rowsAVX2.
func rowsGo(rows, R []float64, m [][6]float64) {
	n := len(m)
	for k := range rows[:6*n] {
		rows[k] = 0
	}
	r00, r01, r02, r11, r12, r22 := rows[:n], rows[n:2*n], rows[2*n:3*n], rows[3*n:4*n], rows[4*n:5*n], rows[5*n:6*n]
	for r := 0; r < n; r += 2 {
		ma, mb := m[r], m[r+1]
		ra, rb := R[r*n:(r+1)*n], R[(r+1)*n:(r+2)*n]
		for k, va := range ra {
			vb := rb[k]
			r00[k] += float64(ma[0]*va) + float64(mb[0]*vb)
			r01[k] += float64(ma[1]*va) + float64(mb[1]*vb)
			r02[k] += float64(ma[2]*va) + float64(mb[2]*vb)
			r11[k] += float64(ma[3]*va) + float64(mb[3]*vb)
			r12[k] += float64(ma[4]*va) + float64(mb[4]*vb)
			r22[k] += float64(ma[5]*va) + float64(mb[5]*vb)
		}
	}
}

// scatter moves the rows of the four targets from lo into their group of
// the operator, undoing each target's longitude shift on the way: every
// (a, b) block of the group is written in order, four lanes at a time,
// each lane reading its target's latitude row from where its shift wraps.
func (op *SelfOperator) scatter(ws *opScratch, lo int) {
	n := op.n
	nlon := op.sq.Grid.Nlon
	var wrap [targetGrain]int // the shifted longitude of unshifted longitude 0
	for l := range wrap {
		wrap[l] = (nlon - (lo+l)%nlon) % nlon
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			e := symEntry[a][b] * n
			r0, r1, r2, r3 := ws.rows[e:][:n], ws.rows[6*n+e:][:n], ws.rows[12*n+e:][:n], ws.rows[18*n+e:][:n]
			blk := op.s[(a*n+lo)*3*n+4*b*n:][:4*n]
			for i := 0; i < n; i += nlon {
				j0, j1, j2, j3 := wrap[0], wrap[1], wrap[2], wrap[3]
				for j := 0; j < nlon; j++ {
					d := blk[4*(i+j):][:4]
					d[0], d[1], d[2], d[3] = r0[i+j0], r1[i+j1], r2[i+j2], r3[i+j3]
					if j0++; j0 == nlon {
						j0 = 0
					}
					if j1++; j1 == nlon {
						j1 = 0
					}
					if j2++; j2 == nlon {
						j2 = 0
					}
					if j3++; j3 == nlon {
						j3 = 0
					}
				}
			}
		}
	}
}

// Apply returns the velocity u = S f induced on the cell's own grid points
// by the force density f (component-major, per unit area).
func (op *SelfOperator) Apply(f [3][]float64) [3][]float64 {
	var out [3][]float64
	for a := range out {
		out[a] = make([]float64, op.n)
	}
	op.ApplyInto(out, f)
	return out
}

// ApplyInto is Apply writing into out, which must not overlap f.
func (op *SelfOperator) ApplyInto(out, f [3][]float64) {
	n := op.n
	if useAVX2 {
		applyAVX2(out[0][:n], out[1][:n], out[2][:n], op.s, f[0][:n], f[1][:n], f[2][:n])
	} else {
		op.applyGo(out, f)
	}
}

// applyGo is Apply's portable loop, and the reference of applyAVX2: each
// target's sum runs over b, then k, in order, four targets side by side.
func (op *SelfOperator) applyGo(out, f [3][]float64) {
	n := op.n
	w := 3 * n
	for a := 0; a < 3; a++ {
		for t := 0; t < n; t += 4 {
			blk := op.s[(a*n+t)*w:][:4*w]
			var s0, s1, s2, s3 float64
			for b := 0; b < 3; b++ {
				for k, v := range f[b][:n] {
					e := blk[4*(b*n+k):][:4]
					s0 += float64(e[0] * v)
					s1 += float64(e[1] * v)
					s2 += float64(e[2] * v)
					s3 += float64(e[3] * v)
				}
			}
			out[a][t], out[a][t+1], out[a][t+2], out[a][t+3] = s0, s1, s2, s3
		}
	}
}

// Release returns the operator's storage to the quadrature's pool; the
// operator must not be used afterwards.
func (op *SelfOperator) Release() { op.sq.ops.Put(op) }
