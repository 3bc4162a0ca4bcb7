package bie

import (
	"math"

	"rbcflow/internal/par"
)

// rigidWallBudget bounds the stored wall operator of one surface, all ranks
// together (ranks share one process): 8·N² bytes, so N ≤ 5792 nodes.
const rigidWallBudget = 256 << 20

// rigidWallFits is the size rule: the coarse wall→wall operator of an
// n-node surface is stored when it fits the budget; larger walls keep
// summing through the FMM evaluator.
func rigidWallFits(n int) bool { return 8*n*n <= rigidWallBudget }

// The values of the bie.wall.stored_kernel gauge: which loop sums the
// wall→wall product.
const (
	storedKernelNone = 0 // no stored operator: the FMM evaluator sums the wall
	storedKernelGo   = 1 // rigidWallBlockGo, the portable loop
	storedKernelAVX2 = 2 // rigidWallBlockAVX2
)

// rigidWallKernel is the stored-kernel code of this machine.
func rigidWallKernel() int {
	if useAVX2 {
		return storedKernelAVX2
	}
	return storedKernelGo
}

// rigidWall is the coarse wall→wall double layer of a rigid surface with
// everything but the density summed out: with r = x_t − y_s,
//
//	D(x_t, y_s; n_s) ϕ_s w_s = G_ts · r (r·ϕ_s w_s),  G_ts = −3/(4π) (r·n_s)/|r|⁵,
//
// and G depends on geometry alone. One float64 per pair of an owned target
// row and a wall node; a product then costs a dot and an axpy per pair, with
// no square root, no division and 3 strength loads where the tensor kernel
// needs 9.
//
// The owned rows come in blocks of four, b covering rows 4b … 4b+3, stored
// interleaved per source: g[(b·N+s)·4+l] = G between row 4b+l and node s.
// One vector lane per row: a source's four values are one 32-byte load. The
// last block is padded with zero rows, at most 3·N·8 bytes.
type rigidWall struct {
	pts, nrm [][3]float64
	lo, hi   int
	y        []float64     // the wall's nodes, 3 coordinates each, in node order
	x        [][12]float64 // per block its rows' targets, lane-interleaved: x[b][4k+l] = pts[lo+4b+l][k]
	g        []float64     // ⌈(hi−lo)/4⌉ blocks × N sources × 4 lanes
}

func newRigidWall(pts, nrm [][3]float64, lo, hi int) *rigidWall {
	n, blocks := len(pts), (hi-lo+3)/4
	w := &rigidWall{pts: pts, nrm: nrm, lo: lo, hi: hi,
		y: make([]float64, 3*n), x: make([][12]float64, blocks), g: make([]float64, 4*blocks*n)}
	for s, p := range pts {
		copy(w.y[3*s:3*s+3], p[:])
	}
	for t, p := range pts[lo:hi] {
		for k := 0; k < 3; k++ {
			w.x[t/4][4*k+t%4] = p[k]
		}
	}
	// Four rows per pass over the sources, so the block is written in
	// order. The conversions round every product on its own, so no compiler
	// may fuse one into an FMA (Go does on arm64).
	par.For(blocks, applyGrain/4, func(b0, b1 int) {
		for b := b0; b < b1; b++ {
			rows := pts[lo+4*b : lo+min(4*b+4, hi-lo)]
			blk := w.g[4*b*n : 4*(b+1)*n]
			for s, y := range pts {
				m := nrm[s]
				for l, x := range rows {
					rx, ry, rz := x[0]-y[0], x[1]-y[1], x[2]-y[2]
					r2 := float64(rx*rx) + float64(ry*ry) + float64(rz*rz)
					if r2 == 0 {
						continue
					}
					inv := 1 / math.Sqrt(r2)
					blk[4*s+l] = -3 / (4 * math.Pi) * (inv * inv * inv * inv * inv) * (float64(rx*m[0]) + float64(ry*m[1]) + float64(rz*m[2]))
				}
			}
		}
	})
	return w
}

// owns reports whether p is the declared slice pts[lo:hi] itself — the same
// memory, not equal coordinates: the contract of FarField.Rigid.
func (w *rigidWall) owns(p [][3]float64) bool {
	return len(p) == w.hi-w.lo && &p[0] == &w.pts[w.lo]
}

// apply sums the stored operator against the tensor strengths srcQ of the
// owned nodes. Q = ϕ⊗n·w, so contracting with the unit normal recovers the
// vector strength Q n = ϕ w; the contraction runs before the allgather, which
// then moves 3 values per node, not 9. A target's sum runs over the sources in
// order, so the rows are the same bits for any GOMAXPROCS and any rank count.
// block sums one block of rows: rigidWallBlock, or in tests one kernel.
func (w *rigidWall) apply(c *par.Comm, srcQ []float64, block func(g, y, f []float64, x, acc *[12]float64)) []float64 {
	rows := w.hi - w.lo
	f := make([]float64, 3*rows)
	for k := 0; k < rows; k++ {
		n := w.nrm[w.lo+k]
		q := srcQ[9*k : 9*k+9 : 9*k+9]
		f[3*k] = q[0]*n[0] + q[1]*n[1] + q[2]*n[2]
		f[3*k+1] = q[3]*n[0] + q[4]*n[1] + q[5]*n[2]
		f[3*k+2] = q[6]*n[0] + q[7]*n[1] + q[8]*n[2]
	}
	fAll, _ := par.AllgathervFlat(c, f)
	n := len(w.pts)
	fAll = fAll[:3*n]
	out := make([]float64, 3*rows)
	par.For(len(w.x), applyGrain/4, func(b0, b1 int) {
		var acc [12]float64
		for b := b0; b < b1; b++ {
			block(w.g[4*b*n:4*(b+1)*n], w.y, fAll, &w.x[b], &acc)
			for l := 0; l < 4 && 4*b+l < rows; l++ {
				t := 4*b + l
				out[3*t], out[3*t+1], out[3*t+2] = acc[l], acc[4+l], acc[8+l]
			}
		}
	})
	return out
}

// rigidWallBlock sums one block of rows: acc[4k+l] = component k of row l's
// sum over the len(g)/4 sources at y (3 coordinates each) with vector
// strengths f (3 each), targets x as in rigidWall.x.
func rigidWallBlock(g, y, f []float64, x, acc *[12]float64) {
	if useAVX2 {
		rigidWallBlockAVX2(g, y, f, x, acc)
		return
	}
	rigidWallBlockGo(g, y, f, x, acc)
}

// rigidWallBlockGo is the portable loop and the AVX2 kernel's reference:
// two lanes per pass over the sources, each summing them in node order. The
// conversions round every product on its own, as VMULPD does: without them
// the spec lets a compiler fuse x*y + z into an FMA, and Go does on arm64.
func rigidWallBlockGo(g, y, f []float64, x, acc *[12]float64) {
	n := len(g) / 4
	y, f = y[:3*n], f[:3*n]
	for l := 0; l < 4; l += 2 {
		x0, x1, x2 := x[l], x[4+l], x[8+l]
		z0, z1, z2 := x[l+1], x[5+l], x[9+l]
		var a0, a1, a2, b0, b1, b2 float64
		for s := 0; s < n; s++ {
			ys := y[3*s : 3*s+3 : 3*s+3]
			fs := f[3*s : 3*s+3 : 3*s+3]
			gs := g[4*s+l : 4*s+l+2 : 4*s+l+2]
			rx, ry, rz := x0-ys[0], x1-ys[1], x2-ys[2]
			v := gs[0] * (float64(rx*fs[0]) + float64(ry*fs[1]) + float64(rz*fs[2]))
			a0 += float64(v * rx)
			a1 += float64(v * ry)
			a2 += float64(v * rz)
			rx, ry, rz = z0-ys[0], z1-ys[1], z2-ys[2]
			v = gs[1] * (float64(rx*fs[0]) + float64(ry*fs[1]) + float64(rz*fs[2]))
			b0 += float64(v * rx)
			b1 += float64(v * ry)
			b2 += float64(v * rz)
		}
		acc[l], acc[4+l], acc[8+l] = a0, a1, a2
		acc[l+1], acc[5+l], acc[9+l] = b0, b1, b2
	}
}
