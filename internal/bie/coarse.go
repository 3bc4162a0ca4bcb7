package bie

import (
	"log/slog"
	"math"

	"rbcflow/internal/la"
	"rbcflow/internal/par"
	"rbcflow/internal/telemetry"
)

// coarseVecs is the number of coarse vectors per patch: the unit normal
// times each of {1, u, v} on the patch's node grid. (The normal alone, one
// vector per patch, was measured too: 7.75 against 6.75 iterations per solve
// on the Y bifurcation, 8.25 against 7.75 in the torus — EXPERIMENTS.md.)
const coarseVecs = 3

// coarseLevel is the second level of the wall solve. On a long thin tube the
// small eigenvalues of A = ½I + D + N belong to densities along the normal
// that vary slowly along the tube, and N's one large eigenvalue (the surface
// area) to the normal field itself, so the coarse space Z holds, per patch,
// the unit normal times {1, u, v} at the patch's nodes, orthonormalised.
// With E = ZᵀAZ the right preconditioner
//
//	M⁻¹ = I + Z(E⁻¹ − I)Zᵀ
//
// solves that space exactly (ZᵀA·M⁻¹Z = I) and leaves its complement alone.
// The wall is rigid, so Z and the factored E are built once per operator.
type coarseLevel struct {
	// z[(p·coarseVecs+j)·3·NQ : …] is coarse vector j of patch p on the
	// patch's interleaved unknowns: basis value times unit normal.
	z   []float64
	lu  *la.LU
	nq  int // nodes per patch
	dim int // coarseVecs × patches
}

// patchBasis returns {1, u, v} on the node grid of one patch (the same grid
// on every patch), orthonormal in the plain sum over the nodes: row j at
// [j·NQ, (j+1)·NQ).
func patchBasis(s *Surface) []float64 {
	nq := s.NQ
	b := make([]float64, coarseVecs*nq)
	for m := 0; m < nq; m++ {
		b[m], b[nq+m], b[2*nq+m] = 1, s.UV[m][0], s.UV[m][1]
	}
	for j := 0; j < coarseVecs; j++ {
		bj := b[j*nq : (j+1)*nq]
		for i := 0; i < j; i++ {
			bi := b[i*nq : (i+1)*nq]
			la.Axpy(-la.Dot(bi, bj), bi, bj)
		}
		la.Scale(1/la.Norm2(bj), bj)
	}
	return b
}

// newCoarseLevel builds Z and the factored E = ZᵀAZ: every rank assembles
// the rows of its own patches (galerkinRows), the rows are allgathered and
// rank 0 factors the matrix for all. Returns nil when E is singular.
// Collective.
func newCoarseLevel(c *par.Comm, sv *Solver) *coarseLevel {
	s := sv.S
	nq, np := s.NQ, s.F.NumPatches()
	b := patchBasis(s)
	cl := &coarseLevel{nq: nq, dim: coarseVecs * np, z: make([]float64, coarseVecs*np*3*nq)}
	for p := 0; p < np; p++ {
		for j := 0; j < coarseVecs; j++ {
			zj := cl.vec(p, j)
			for m := 0; m < nq; m++ {
				n, bv := s.Nrm[p*nq+m], b[j*nq+m]
				zj[3*m], zj[3*m+1], zj[3*m+2] = bv*n[0], bv*n[1], bv*n[2]
			}
		}
	}
	e, _ := par.AllgathervFlat(c, cl.galerkinRows(sv, b))
	// The factorisation is O(dim³) — most of the build on the largest walls —
	// and read-only afterwards; the ranks of a world share one process, so
	// rank 0 factors and the others take its pointer.
	var shared []*la.LU
	if c.Rank() == 0 {
		lu, err := la.Factor(&la.Dense{Rows: cl.dim, Cols: cl.dim, Data: e})
		if err != nil {
			slog.Warn("bie: coarse operator not factorable, solving without the coarse level", "dim", cl.dim, "err", err)
		}
		shared = []*la.LU{lu}
	}
	if cl.lu = par.Bcast(c, 0, shared)[0]; cl.lu == nil {
		return nil
	}
	return cl
}

// galerkinRows assembles the rows of E = ZᵀAZ that belong to the rank's own
// patches in one pass over geometry and plan — no matvec, and nothing
// through the far-field backend. With r = x_t − y_s and b the patch basis,
//
//	E[(q,i),(p,j)] = ½δ_qp δ_ij
//	  + Σ_{t∈q} b_i(t) Σ_{s∈p, s≠t} k_ts b_j(s)
//	  + Σ_{t∈q} b_i(t) n_t·C_{t,p}(b_j n)
//	  + (Σ_{t∈q} b_i(t)) (Σ_{s∈p} b_j(s) w_s),
//	k_ts = −3/(4π) (r·n_s)² (r·n_t) w_s / |r|⁵,
//
// C_{t,p} the plan's node block of target t and patch p, and k_ts a scalar
// per node pair. One pool chunk per patch, targets and sources in
// node order: the rows are the same bits for any GOMAXPROCS and any rank
// count.
func (cl *coarseLevel) galerkinRows(sv *Solver, b []float64) []float64 {
	s := sv.S
	nq, np, dim := s.NQ, s.F.NumPatches(), cl.dim
	// N's action: bw[(p,j)] = Σ_{s∈p} b_j(s) w_s against bsum[i] = Σ_t b_i(t).
	bw := make([]float64, dim)
	var bsum [coarseVecs]float64
	for j := 0; j < coarseVecs; j++ {
		for m, bv := range b[j*nq : (j+1)*nq] {
			bsum[j] += bv
			for p := 0; p < np; p++ {
				bw[p*coarseVecs+j] += bv * s.W[p*nq+m]
			}
		}
	}
	b0, b1, b2 := b[:nq], b[nq:2*nq], b[2*nq:3*nq] // the pair loop is unrolled over the three rows
	owned := sv.patchHi - sv.patchLo
	rows := make([]float64, owned*coarseVecs*dim)
	cg := &sv.near.groups
	par.For(owned, 1, func(q0, q1 int) {
		var res [][coarseVecs][12]float64 // the blocks of group cur against the coarse vectors
		cur := -1
		for q := sv.patchLo + q0; q < sv.patchLo+q1; q++ {
			block := rows[(q-sv.patchLo)*coarseVecs*dim : (q-sv.patchLo+1)*coarseVecs*dim]
			for tm := 0; tm < nq; tm++ {
				t := q*nq + tm
				x, nt := s.Pts[t], s.Nrm[t]
				// add folds c = n_t·(A's action of coarse vector (p, j) at t)
				// into the rows of patch q.
				add := func(p, j int, c float64) {
					for i := 0; i < coarseVecs; i++ {
						block[i*dim+p*coarseVecs+j] += b[i*nq+tm] * c
					}
				}
				for p := 0; p < np; p++ {
					pts := s.Pts[p*nq : (p+1)*nq]
					nrm, w := s.Nrm[p*nq : (p+1)*nq][:len(pts)], s.W[p*nq : (p+1)*nq][:len(pts)]
					var a0, a1, a2 float64
					for sm, y := range pts {
						rx, ry, rz := x[0]-y[0], x[1]-y[1], x[2]-y[2]
						r2 := rx*rx + ry*ry + rz*rz
						if r2 == 0 {
							continue
						}
						inv := 1 / math.Sqrt(r2)
						n := nrm[sm]
						rn := rx*n[0] + ry*n[1] + rz*n[2]
						k := -3 / (4 * math.Pi) * (inv * inv * inv * inv * inv) * rn * rn * (rx*nt[0] + ry*nt[1] + rz*nt[2]) * w[sm]
						a0 += k * b0[sm]
						a1 += k * b1[sm]
						a2 += k * b2[sm]
					}
					add(p, 0, a0)
					add(p, 1, a1)
					add(p, 2, a2)
				}
				// The near corrections: the blocks of t's group against the
				// coarse vectors, summed once per group, t's lane read back.
				grp, l := t/corrLanes, t%corrLanes
				k0, k1 := cg.start[grp], cg.start[grp+1]
				if grp != cur {
					cur = grp
					res = res[:0]
					for k := k0; k < k1; k++ {
						res = append(res, [coarseVecs][12]float64{})
						for j := 0; j < coarseVecs; j++ {
							corrBlock(cg.block(k, nq), cl.vec(cg.pid[k], j), &res[k-k0][j])
						}
					}
				}
				for k := k0; k < k1; k++ {
					if cg.lanes[k]&(1<<l) == 0 {
						continue
					}
					for j := 0; j < coarseVecs; j++ {
						a := &res[k-k0][j]
						add(cg.pid[k], j, nt[0]*a[l]+nt[1]*a[4+l]+nt[2]*a[8+l])
					}
				}
			}
			for i := 0; i < coarseVecs; i++ {
				row := block[i*dim : (i+1)*dim]
				for k := range row {
					row[k] += bsum[i] * bw[k]
				}
				row[q*coarseVecs+i] += 0.5
			}
		}
	})
	return rows
}

// vec is coarse vector j of patch p (3·nq interleaved values).
func (cl *coarseLevel) vec(p, j int) []float64 {
	n := 3 * cl.nq
	o := (p*coarseVecs + j) * n
	return cl.z[o : o+n : o+n]
}

// Precondition writes M⁻¹v = v + Z(E⁻¹ − I)Zᵀv for the rank-local segment v
// into dst (which may be v itself): the owned patches' dots, one allgather
// of coarseVecs values per patch, the LU solve on every rank, the owned
// patches' update. The identity when the operator has no coarse level.
// Collective.
func (sv *Solver) Precondition(c *par.Comm, dst, v []float64) {
	copy(dst, v)
	cl := sv.coarse
	if cl == nil {
		return
	}
	nq := sv.S.NQ
	owned := sv.patchHi - sv.patchLo
	a := make([]float64, owned*coarseVecs)
	for q := 0; q < owned; q++ {
		for j := 0; j < coarseVecs; j++ {
			a[q*coarseVecs+j] = la.Dot(cl.vec(sv.patchLo+q, j), v[q*3*nq:(q+1)*3*nq])
		}
	}
	all, _ := par.AllgathervFlat(c, a)
	y := make([]float64, cl.dim)
	cl.lu.Solve(y, all)
	for q := 0; q < owned; q++ {
		for j := 0; j < coarseVecs; j++ {
			k := (sv.patchLo+q)*coarseVecs + j
			la.Axpy(y[k]-all[k], cl.vec(sv.patchLo+q, j), dst[q*3*nq:(q+1)*3*nq])
		}
	}
	if sv.tel != nil {
		sv.tel.Counter("bie.precond.applies").Inc()
	}
}

// buildCoarse gives the operator its coarse level, recording the build span
// and the coarse dimension (0 when E could not be factored).
func (sv *Solver) buildCoarse(c *par.Comm) {
	stop := telemetry.Start(sv.tel, "bie.coarse.build")
	sv.coarse = newCoarseLevel(c, sv)
	stop()
	if sv.tel != nil {
		dim := 0
		if sv.coarse != nil {
			dim = sv.coarse.dim
		}
		sv.tel.Gauge("bie.coarse.dim").Set(float64(dim))
	}
}
