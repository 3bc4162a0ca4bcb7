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
				o := [3]float64{ct*d[0] + st*d[2], d[1], -st*d[0] + ct*d[2]}
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
					rrow[cI] += ek * frow[cI]
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
type SelfOperator struct {
	sq *SingularQuad
	n  int
	s  []float64 // row-major; row a·n+t, column b·n+k
}

// opScratch is the per-chunk work space of the assembly.
type opScratch struct {
	shifted, rot [][4]float64 // positions and area-element ratio per node: longitude-shifted, then rotated
	m            [][6]float64 // Stokeslet block per rotated node: entries 00 01 02 11 12 22
	row          [6][]float64 // M-weighted rows of R, same six entries
}

// targetGrain is the target chunk of the assembly loop: one target costs
// 10n² flops, so a few of them amortise a chunk's hand-off.
const targetGrain = 4

// NewSelfOperator assembles the self-interaction of c at geometry geo and
// viscosity mu. Targets are assembled in chunks on the node's worker pool,
// each writing only its own rows, so the operator is bit-identical for any
// core count. Release returns the storage for reuse.
func (c *Cell) NewSelfOperator(sq *SingularQuad, geo *Geometry, mu float64) *SelfOperator {
	g := c.Grid
	n := g.NumPoints()
	op, _ := sq.ops.Get().(*SelfOperator)
	if op == nil {
		op = &SelfOperator{sq: sq, n: n, s: make([]float64, 9*n*n)}
	}
	// The smooth area-element ratio Ĵ = W/sinθ.
	jhat := make([]float64, n)
	for i := 0; i < g.Nlat; i++ {
		st := math.Sin(g.Theta[i])
		for j := 0; j < g.Nlon; j++ {
			jhat[g.Index(i, j)] = geo.W[g.Index(i, j)] / st
		}
	}
	fields := [4][]float64{c.X[0], c.X[1], c.X[2], jhat}
	c8pi := 1 / (8 * math.Pi * mu)
	par.For(n, targetGrain, func(lo, hi int) {
		ws, _ := sq.scratch.Get().(*opScratch)
		if ws == nil {
			ws = &opScratch{shifted: make([][4]float64, n), rot: make([][4]float64, n), m: make([][6]float64, n)}
			for d := range ws.row {
				ws.row[d] = make([]float64, n)
			}
		}
		for tk := lo; tk < hi; tk++ {
			op.assembleTarget(ws, tk, fields, c8pi)
		}
		sq.scratch.Put(ws)
	})
	return op
}

// assembleTarget fills the three rows of target tk.
func (op *SelfOperator) assembleTarget(ws *opScratch, tk int, fields [4][]float64, c8pi float64) {
	sq, n := op.sq, op.n
	g := sq.Grid
	nlon := g.Nlon
	it, jt := tk/nlon, tk%nlon
	R := sq.Rot[it]
	x := [3]float64{fields[0][tk], fields[1][tk], fields[2][tk]}
	// Rotate the geometry: shift longitudes so the target is at φ = 0, then
	// apply R — the four fields side by side, in one pass over each row.
	for i := 0; i < g.Nlat; i++ {
		for j := 0; j < nlon; j++ {
			k := i*nlon + (j+jt)%nlon
			ws.shifted[i*nlon+j] = [4]float64{fields[0][k], fields[1][k], fields[2][k], fields[3][k]}
		}
	}
	for r := 0; r < n; r++ {
		var s0, s1, s2, s3 float64
		for k, rk := range R[r*n : (r+1)*n] {
			v := &ws.shifted[k]
			s0 += rk * v[0]
			s1 += rk * v[1]
			s2 += rk * v[2]
			s3 += rk * v[3]
		}
		ws.rot[r] = [4]float64{s0, s1, s2, s3}
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
			r2 := ry[0]*ry[0] + ry[1]*ry[1] + ry[2]*ry[2]
			var scale, q float64
			if r2 >= 1e-28 {
				// S(x,y) · |x−y| (smooth scaling by the chordal ratio).
				scale = c8pi * y[3] * w * sh / math.Sqrt(r2)
				q = scale / r2
			}
			ws.m[r] = [6]float64{scale + q*ry[0]*ry[0], q * ry[0] * ry[1], q * ry[0] * ry[2],
				scale + q*ry[1]*ry[1], q * ry[1] * ry[2], scale + q*ry[2]*ry[2]}
		}
	}
	// Rows of the target: Σ_r M_r[a][b] · R[r,·], two rows of R per pass
	// (n = Nlat · 2P is even) so each accumulator is loaded and stored half
	// as often.
	for _, row := range ws.row {
		for k := range row {
			row[k] = 0
		}
	}
	r00, r01, r02, r11, r12, r22 := ws.row[0][:n], ws.row[1][:n], ws.row[2][:n], ws.row[3][:n], ws.row[4][:n], ws.row[5][:n]
	for r := 0; r < n; r += 2 {
		ma, mb := ws.m[r], ws.m[r+1]
		ra, rb := R[r*n:(r+1)*n], R[(r+1)*n:(r+2)*n]
		for k, va := range ra {
			vb := rb[k]
			r00[k] += ma[0]*va + mb[0]*vb
			r01[k] += ma[1]*va + mb[1]*vb
			r02[k] += ma[2]*va + mb[2]*vb
			r11[k] += ma[3]*va + mb[3]*vb
			r12[k] += ma[4]*va + mb[4]*vb
			r22[k] += ma[5]*va + mb[5]*vb
		}
	}
	// Undo the longitude shift on the way into the matrix.
	rows := [3][3][]float64{{r00, r01, r02}, {r01, r11, r12}, {r02, r12, r22}}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			dst := op.s[(a*n+tk)*3*n+b*n:][:n]
			src := rows[a][b]
			for i := 0; i < g.Nlat; i++ {
				for j := 0; j < nlon; j++ {
					dst[i*nlon+(j+jt)%nlon] = src[i*nlon+j]
				}
			}
		}
	}
}

// Apply returns the velocity u = S f induced on the cell's own grid points
// by the force density f (component-major, per unit area).
func (op *SelfOperator) Apply(f [3][]float64) [3][]float64 {
	n := op.n
	var out [3][]float64
	for a := 0; a < 3; a++ {
		out[a] = make([]float64, n)
		for t := 0; t < n; t++ {
			row := op.s[(a*n+t)*3*n:][:3*n]
			var s float64
			for b := 0; b < 3; b++ {
				fb := f[b][:n]
				for k, v := range row[b*n:][:n] {
					s += v * fb[k]
				}
			}
			out[a][t] = s
		}
	}
	return out
}

// Release returns the operator's storage to the quadrature's pool; the
// operator must not be used afterwards.
func (op *SelfOperator) Release() { op.sq.ops.Put(op) }
