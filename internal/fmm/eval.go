package fmm

import (
	"math"
	"sort"

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

// directGrain is the target chunk of Direct's loop and the largest leaf
// group of the tree's P2P: a few hundred sources per target already
// amortise a chunk's hand-off, and 64 targets keep the chunk count far
// above any core count for load balance.
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
	e.upward(t, 0, len(t.keys[t.depth]))
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

// upward runs P2M for the leaf range [leafLo, leafHi) of the sorted leaf
// keys and M2M for all ancestors reachable from those leaves. Partial ranges
// give partial multipoles that sum across ranks (multipole linearity).
// Children are folded into their parent in sorted-key order, so a multipole
// is the same bits on every call.
func (e *Evaluator) upward(t *tree, leafLo, leafHi int) {
	ds := e.cfg.Kernel.SrcDim()
	nn := e.ci.nn
	w := make([]float64, nn)
	// P2M.
	for _, key := range t.keys[t.depth][leafLo:leafHi] {
		b := t.levels[t.depth][key]
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
		for _, key := range t.keys[l] {
			b := t.levels[l][key]
			if b.multipole == nil {
				continue
			}
			parent := t.levels[l-1][boxKey(b.ix/2, b.iy/2, b.iz/2)]
			if parent.multipole == nil {
				parent.multipole = make([]float64, nn*ds)
			}
			W := e.ci.childW[b.octant()] // W[j*nn+k] = S(childNode_j, parentNode_k)
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

// boxGrain is the box chunk of a level's M2L loop: one box meets up to 189
// list entries of nn² kernel evaluations each, so even a single box would
// carry its hand-off; a few keep the chunk count modest on wide levels.
const boxGrain = 4

// downward runs L2L + M2L for the boxes needed by trgPos (all boxes when
// needed == nil), then L2P and P2P for the targets. needed maps level ->
// set of box keys to process.
//
// Both loops run in chunks on the node's worker pool. A level's boxes are
// taken in sorted-key order; a chunk writes only its own boxes' local
// expansions and reads the finished level above and the multipoles. The
// targets go in leaf groups (leafGroups), each writing its own targets'
// outputs. Every box and every target sums its contributions in one fixed
// order, so the result is bit-identical for any GOMAXPROCS and on every
// call.
func (e *Evaluator) downward(t *tree, trgPos [][3]float64, needed []map[uint64]bool) []float64 {
	nn := e.ci.nn

	for l := 2; l <= t.depth; l++ {
		var todo []*box
		for _, key := range t.keys[l] {
			if needed == nil || needed[l][key] {
				todo = append(todo, t.levels[l][key])
			}
		}
		par.For(len(todo), boxGrain, func(lo, hi int) {
			trgNodes := make([][3]float64, nn)
			srcNodes := make([][3]float64, nn)
			for _, b := range todo[lo:hi] {
				e.localExpansion(t, b, trgNodes, srcNodes)
			}
		})
	}
	return e.evalTargets(t, trgPos)
}

// evalTargets runs L2P and P2P for the targets once the local expansions
// are done: one pool chunk per leaf group.
func (e *Evaluator) evalTargets(t *tree, trgPos [][3]float64) []float64 {
	do := e.cfg.Kernel.OutDim()
	nn := e.ci.nn
	out := make([]float64, len(trgPos)*do)
	order, groups, keys := leafGroups(t, trgPos)
	par.For(len(keys), 1, func(lo, hi int) {
		wts := make([]float64, nn)
		nodes := make([][3]float64, nn)
		pos := make([][3]float64, directGrain)
		acc := make([]float64, directGrain*do)
		for g := lo; g < hi; g++ {
			idx := order[groups[g]:groups[g+1]]
			for j, ti := range idx {
				pos[j] = trgPos[ti]
			}
			a := acc[:len(idx)*do]
			clear(a)
			e.evalLeafGroup(t, keys[g], pos[:len(idx)], a, wts, nodes)
			for j, ti := range idx {
				copy(out[ti*do:(ti+1)*do], a[j*do:(j+1)*do])
			}
		}
	})
	return out
}

// leafGroups orders the targets by the key of the leaf that holds them, by
// index within a leaf, and cuts that order into groups of one leaf and at
// most directGrain targets: order[groups[g]:groups[g+1]] are group g's
// target indices and keys[g] its leaf. The cut depends on the targets
// alone, never on the core count.
func leafGroups(t *tree, trgPos [][3]float64) (order, groups []int, keys []uint64) {
	type trgRef struct {
		key uint64
		idx int
	}
	refs := make([]trgRef, len(trgPos))
	for i, x := range trgPos {
		ix, iy, iz := t.leafOf(x)
		refs[i] = trgRef{boxKey(ix, iy, iz), i}
	}
	sort.Slice(refs, func(a, b int) bool {
		if refs[a].key != refs[b].key {
			return refs[a].key < refs[b].key
		}
		return refs[a].idx < refs[b].idx
	})
	order = make([]int, len(refs))
	for i, r := range refs {
		order[i] = r.idx
		if i == 0 || r.key != refs[i-1].key || i-groups[len(groups)-1] == directGrain {
			groups = append(groups, i)
			keys = append(keys, r.key)
		}
	}
	return order, append(groups, len(refs)), keys
}

// localExpansion fills b.local: L2L from the parent's finished expansion,
// then M2L — one block-kernel call per interaction-list entry, from the
// entry's multipole at its nodes to b's nodes (the kernel is evaluated on
// the fly; the kernels are cheap enough that caching translation matrices is
// not worth the memory at tensor source dimensions). trgNodes and srcNodes
// are nn-long scratch.
func (e *Evaluator) localExpansion(t *tree, b *box, trgNodes, srcNodes [][3]float64) {
	do := e.cfg.Kernel.OutDim()
	nn := e.ci.nn
	l := b.level
	if b.local == nil {
		b.local = make([]float64, nn*do)
	}
	if l > 2 {
		parent := t.levels[l-1][boxKey(b.ix/2, b.iy/2, b.iz/2)]
		if parent.local != nil {
			W := e.ci.childW[b.octant()]
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
	t.boxNodes(trgNodes, l, b.ix, b.iy, b.iz)
	t.interactionList(b, func(src *box) {
		if src.multipole == nil {
			return
		}
		t.boxNodes(srcNodes, l, src.ix, src.iy, src.iz)
		e.cfg.Kernel.EvalBlock(b.local, trgNodes, srcNodes, src.multipole)
	})
}

// evalLeafGroup accumulates the field at targets that share the leaf key
// into dst: per target, L2P from the leaf's local expansion — or, when the
// leaf holds no sources and so has no expansion, M2P from the
// well-separated boxes — then P2P, one block-kernel call per neighbour leaf
// over all the targets. Each target adds its terms in the order a lone
// target would: the expansion, then the neighbour leaves in order, each
// leaf's sources in order, so grouping changes no bit.
func (e *Evaluator) evalLeafGroup(t *tree, key uint64, trg [][3]float64, dst, wts []float64, nodes [][3]float64) {
	do := e.cfg.Kernel.OutDim()
	ds := e.cfg.Kernel.SrcDim()
	nn := e.ci.nn
	ix, iy, iz := keyCoords(key)
	if b, ok := t.levels[t.depth][key]; ok && b.local != nil {
		ctr := t.boxCenter(t.depth, ix, iy, iz)
		half := t.boxWidth(t.depth) / 2
		for j, x := range trg {
			xi := [3]float64{(x[0] - ctr[0]) / half, (x[1] - ctr[1]) / half, (x[2] - ctr[2]) / half}
			e.ci.weights3d(xi, wts)
			d := dst[j*do : (j+1)*do]
			for k := 0; k < nn; k++ {
				wk := wts[k]
				if wk == 0 {
					continue
				}
				lk := b.local[k*do : (k+1)*do]
				for c := 0; c < do; c++ {
					d[c] += wk * lk[c]
				}
			}
		}
	} else if !ok {
		if root, ok := t.levels[0][boxKey(0, 0, 0)]; ok {
			e.m2p(t, 0, root, [3]uint32{ix, iy, iz}, trg, dst, nodes)
		}
	}
	t.neighborLeaves(ix, iy, iz, func(src *box) {
		e.cfg.Kernel.EvalBlock(dst, trg, t.srcPos[src.srcLo:src.srcHi], t.srcQ[src.srcLo*ds:src.srcHi*ds])
	})
}

// m2p evaluates the far field at targets whose leaf box (coordinates leaf)
// is empty by a treecode-style descent from box b: a box well separated
// from the leaf contributes through its multipole (one block-kernel call
// from its nodes over all the targets); the descent recurses into boxes
// adjacent to the leaf, and adjacent leaves are left to the caller's P2P.
func (e *Evaluator) m2p(t *tree, level int, b *box, leaf [3]uint32, trg [][3]float64, dst []float64, nodes [][3]float64) {
	if b.multipole == nil {
		return
	}
	// The target's leaf at this box's level.
	shift := uint(t.depth - level)
	lx, ly, lz := leaf[0]>>shift, leaf[1]>>shift, leaf[2]>>shift
	dx, dy, dz := abs64(int64(b.ix)-int64(lx)), abs64(int64(b.iy)-int64(ly)), abs64(int64(b.iz)-int64(lz))
	if dx > 1 || dy > 1 || dz > 1 {
		t.boxNodes(nodes, level, b.ix, b.iy, b.iz)
		e.cfg.Kernel.EvalBlock(dst, trg, nodes, b.multipole)
		return
	}
	if level == t.depth {
		return
	}
	for oct := 0; oct < 8; oct++ {
		cx := b.ix<<1 | uint32(oct&1)
		cy := b.iy<<1 | uint32(oct>>1&1)
		cz := b.iz<<1 | uint32(oct>>2&1)
		if child, ok := t.levels[level+1][boxKey(cx, cy, cz)]; ok {
			e.m2p(t, level+1, child, leaf, trg, dst, nodes)
		}
	}
}
