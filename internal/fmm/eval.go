package fmm

import (
	"math"

	"rbcflow/internal/par"
	"rbcflow/internal/telemetry"
)

// Evaluator performs fast summation for a fixed kernel and accuracy order.
// It is cheap to construct; the interpolation operators are shared.
type Evaluator struct {
	cfg Config
	ci  *chebInterp
}

// NewEvaluator builds an evaluator from cfg (defaults applied).
func NewEvaluator(cfg Config) *Evaluator {
	cfg.defaults()
	return &Evaluator{cfg: cfg, ci: newChebInterp(cfg.Order)}
}

// directGrain is the target chunk of Direct's loop: a few hundred sources
// per target already amortise a chunk's hand-off, and 64 targets keep the
// chunk count far above any core count for load balance.
const directGrain = 64

// Direct computes the exact N-body sum (used below the DirectBelow
// threshold and for verification): disjoint target chunks on the node's
// worker pool, each one block-kernel call over all sources. A target's sum
// runs over the sources in order whatever the core count, so the output is
// bit-identical for any GOMAXPROCS.
func (e *Evaluator) Direct(srcPos [][3]float64, srcQ []float64, trgPos [][3]float64) []float64 {
	defer telemetry.Start(e.cfg.Tel, "fmm.direct")()
	k := e.cfg.Kernel
	do := k.OutDim()
	out := make([]float64, len(trgPos)*do)
	par.For(len(trgPos), directGrain, func(lo, hi int) {
		k.EvalBlock(out[lo*do:hi*do], trgPos[lo:hi], srcPos, srcQ)
	})
	e.cfg.Health.CheckFinite("fmm.out", out)
	return out
}

// Evaluate computes u(x_t) = Σ_s K(x_t − y_s) q_s for all targets.
// srcQ has Kernel.SrcDim() components per source; the result has
// Kernel.OutDim() components per target.
func (e *Evaluator) Evaluate(srcPos [][3]float64, srcQ []float64, trgPos [][3]float64) []float64 {
	if len(srcPos)*len(trgPos) <= e.cfg.DirectBelow || len(srcPos) == 0 || len(trgPos) == 0 {
		return e.Direct(srcPos, srcQ, trgPos)
	}
	lo, hi := bbox(srcPos, trgPos)
	stopBuild := telemetry.Start(e.cfg.Tel, "fmm.tree.build")
	t := buildTree(e.cfg, lo, hi, srcPos, srcQ, e.ci)
	stopBuild()
	stopUp := telemetry.Start(e.cfg.Tel, "fmm.upward")
	e.upward(t, 0, len(t.leafOrder))
	stopUp()
	stopDown := telemetry.Start(e.cfg.Tel, "fmm.downward")
	out := e.downward(t, trgPos, nil)
	stopDown()
	e.cfg.Health.CheckFinite("fmm.out", out)
	return out
}

func bbox(a, b [][3]float64) (lo, hi [3]float64) {
	lo = [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi = [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for _, s := range [][][3]float64{a, b} {
		for _, p := range s {
			for d := 0; d < 3; d++ {
				if p[d] < lo[d] {
					lo[d] = p[d]
				}
				if p[d] > hi[d] {
					hi[d] = p[d]
				}
			}
		}
	}
	return lo, hi
}

// upward runs P2M for the leaf range [leafLo, leafHi) of t.leafOrder and
// M2M for all ancestors reachable from those leaves. Partial ranges give
// partial multipoles that sum across ranks (multipole linearity).
func (e *Evaluator) upward(t *tree, leafLo, leafHi int) {
	ds := e.cfg.Kernel.SrcDim()
	nn := e.ci.nn
	w := make([]float64, nn)
	// P2M.
	for li := leafLo; li < leafHi; li++ {
		b := t.levels[t.depth][t.leafOrder[li]]
		if b.multipole == nil {
			b.multipole = make([]float64, nn*ds)
		}
		ctr := t.boxCenter(b.level, b.ix, b.iy, b.iz)
		half := t.boxWidth(b.level) / 2
		for s := b.srcLo; s < b.srcHi; s++ {
			p := t.srcPos[s]
			xi := [3]float64{(p[0] - ctr[0]) / half, (p[1] - ctr[1]) / half, (p[2] - ctr[2]) / half}
			e.ci.weights3d(xi, w)
			q := t.srcQ[s*ds : (s+1)*ds]
			for k := 0; k < nn; k++ {
				wk := w[k]
				if wk == 0 {
					continue
				}
				m := b.multipole[k*ds : (k+1)*ds]
				for c := 0; c < ds; c++ {
					m[c] += wk * q[c]
				}
			}
		}
	}
	// M2M, fine to coarse.
	for l := t.depth; l > 0; l-- {
		for key, b := range t.levels[l] {
			if b.multipole == nil {
				continue
			}
			ix, iy, iz := keyCoords(key)
			parent := t.levels[l-1][boxKey(ix/2, iy/2, iz/2)]
			if parent.multipole == nil {
				parent.multipole = make([]float64, nn*ds)
			}
			oct := int(ix&1) | int(iy&1)<<1 | int(iz&1)<<2
			W := e.ci.childW[oct] // W[j*nn+k] = S(childNode_j, parentNode_k)
			for j := 0; j < nn; j++ {
				mj := b.multipole[j*ds : (j+1)*ds]
				row := W[j*nn : (j+1)*nn]
				for k := 0; k < nn; k++ {
					wjk := row[k]
					if wjk == 0 {
						continue
					}
					mp := parent.multipole[k*ds : (k+1)*ds]
					for c := 0; c < ds; c++ {
						mp[c] += wjk * mj[c]
					}
				}
			}
		}
	}
}

// downward runs M2L + L2L for the boxes needed by trgPos (all boxes when
// needed == nil), then L2P and P2P for the targets. needed maps level ->
// set of box keys to process.
func (e *Evaluator) downward(t *tree, trgPos [][3]float64, needed []map[uint64]bool) []float64 {
	ds := e.cfg.Kernel.SrcDim()
	do := e.cfg.Kernel.OutDim()
	nn := e.ci.nn
	ker := e.cfg.Kernel

	for l := 2; l <= t.depth; l++ {
		wl := t.boxWidth(l)
		half := wl / 2
		for key, b := range t.levels[l] {
			if needed != nil && !needed[l][key] {
				continue
			}
			if b.local == nil {
				b.local = make([]float64, nn*do)
			}
			// L2L from parent.
			if l > 2 {
				parent := t.levels[l-1][boxKey(b.ix/2, b.iy/2, b.iz/2)]
				if parent.local != nil {
					oct := int(b.ix&1) | int(b.iy&1)<<1 | int(b.iz&1)<<2
					W := e.ci.childW[oct]
					for j := 0; j < nn; j++ {
						row := W[j*nn : (j+1)*nn]
						lj := b.local[j*do : (j+1)*do]
						for k := 0; k < nn; k++ {
							wjk := row[k]
							if wjk == 0 {
								continue
							}
							lp := parent.local[k*do : (k+1)*do]
							for c := 0; c < do; c++ {
								lj[c] += wjk * lp[c]
							}
						}
					}
				}
			}
			// M2L from interaction list (kernel evaluated on the fly; the
			// kernels are cheap enough that caching translation matrices is
			// not worth the memory at tensor source dimensions).
			bc := t.boxCenter(l, b.ix, b.iy, b.iz)
			t.interactionList(b, func(src *box, dx, dy, dz int) {
				if src.multipole == nil {
					return
				}
				sc := t.boxCenter(l, src.ix, src.iy, src.iz)
				for j := 0; j < nn; j++ {
					tn := e.ci.node3[j]
					tx := bc[0] + tn[0]*half
					ty := bc[1] + tn[1]*half
					tz := bc[2] + tn[2]*half
					lj := b.local[j*do : (j+1)*do]
					for k := 0; k < nn; k++ {
						sn := e.ci.node3[k]
						ker.Eval(lj,
							tx-(sc[0]+sn[0]*half),
							ty-(sc[1]+sn[1]*half),
							tz-(sc[2]+sn[2]*half),
							src.multipole[k*ds:(k+1)*ds])
					}
				}
			})
		}
	}

	// L2P + P2P per target.
	out := make([]float64, len(trgPos)*do)
	wts := make([]float64, nn)
	leafW := t.boxWidth(t.depth)
	for ti, x := range trgPos {
		dst := out[ti*do : (ti+1)*do]
		ix, iy, iz := t.targetLeaf(x)
		if b, ok := t.levels[t.depth][boxKey(ix, iy, iz)]; ok && b.local != nil {
			ctr := t.boxCenter(t.depth, ix, iy, iz)
			xi := [3]float64{
				(x[0] - ctr[0]) / (leafW / 2),
				(x[1] - ctr[1]) / (leafW / 2),
				(x[2] - ctr[2]) / (leafW / 2),
			}
			e.ci.weights3d(xi, wts)
			for k := 0; k < nn; k++ {
				wk := wts[k]
				if wk == 0 {
					continue
				}
				lk := b.local[k*do : (k+1)*do]
				for c := 0; c < do; c++ {
					dst[c] += wk * lk[c]
				}
			}
		} else if !ok {
			// Target leaf has no sources: it may still need a local
			// expansion for far-field contributions. Fall back to the
			// parent chain: aggregate far field directly from all
			// non-neighbor boxes via their multipoles at the coarsest
			// separated level. Handled below by explicit M2P.
			e.m2pFallback(t, x, dst)
		}
		// P2P from neighbor leaves.
		t.neighborLeaves(ix, iy, iz, func(src *box) {
			for s := src.srcLo; s < src.srcHi; s++ {
				y := t.srcPos[s]
				ker.Eval(dst, x[0]-y[0], x[1]-y[1], x[2]-y[2], t.srcQ[s*ds:(s+1)*ds])
			}
		})
	}
	return out
}

// m2pFallback evaluates the far field at a target whose leaf box is empty
// (and therefore has no local expansion) by a treecode-style descent: any
// box well separated from the target contributes through its multipole; the
// descent recurses into boxes adjacent to the target's leaf.
func (e *Evaluator) m2pFallback(t *tree, x [3]float64, dst []float64) {
	ds := e.cfg.Kernel.SrcDim()
	nn := e.ci.nn
	ker := e.cfg.Kernel
	tix, tiy, tiz := t.targetLeaf(x)

	var visit func(level int, b *box)
	visit = func(level int, b *box) {
		if b.multipole == nil {
			return
		}
		// Target leaf coordinates at this box's level.
		shift := uint(t.depth - level)
		lx, ly, lz := tix>>shift, tiy>>shift, tiz>>shift
		dx, dy, dz := abs64(int64(b.ix)-int64(lx)), abs64(int64(b.iy)-int64(ly)), abs64(int64(b.iz)-int64(lz))
		if dx > 1 || dy > 1 || dz > 1 {
			// Well separated: M2P.
			bc := t.boxCenter(level, b.ix, b.iy, b.iz)
			half := t.boxWidth(level) / 2
			for k := 0; k < nn; k++ {
				sn := e.ci.node3[k]
				ker.Eval(dst,
					x[0]-(bc[0]+sn[0]*half),
					x[1]-(bc[1]+sn[1]*half),
					x[2]-(bc[2]+sn[2]*half),
					b.multipole[k*ds:(k+1)*ds])
			}
			return
		}
		if level == t.depth {
			// Adjacent leaf: handled by the caller's P2P.
			return
		}
		// Adjacent non-leaf: recurse into occupied children.
		for oct := 0; oct < 8; oct++ {
			cx := b.ix<<1 | uint32(oct&1)
			cy := b.iy<<1 | uint32(oct>>1&1)
			cz := b.iz<<1 | uint32(oct>>2&1)
			if child, ok := t.levels[level+1][boxKey(cx, cy, cz)]; ok {
				visit(level+1, child)
			}
		}
	}
	if root, ok := t.levels[0][boxKey(0, 0, 0)]; ok {
		visit(0, root)
	}
}
