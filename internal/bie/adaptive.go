package bie

import (
	"math"
	"sync/atomic"

	"rbcflow/internal/patch"
	"rbcflow/internal/quadrature"
)

// Adaptive singular/near-singular quadrature for the local operator mode.
//
// The check-point extrapolation of paper §3.1 assumes the velocity induced
// by the near patches extends smoothly along the target's normal for a
// distance of order the target's patch size L. That holds when the near
// patches continue one smooth sheet (the closed torus/sphere cases), but it
// fails across a cap/barrel rim: for a target at distance d « L from the
// corner, the neighbouring perpendicular panel's field varies on the scale
// d, and extrapolating it from check points at 0.15L..0.9L back to the
// surface leaves an O(1) error. Those broken rows scatter the Nyström
// spectrum and stall GMRES at O(1e-1) on every capped geometry — the
// seed-era limitation documented in DESIGN.md.
//
// The replacement implemented here needs no smooth continuation at all:
//
//   - A near patch that does not contain the target induces a PROPER
//     integral (the kernel is smooth at distance d > 0). It is evaluated
//     directly at the target by adaptive tensor Gauss-Legendre quadrature:
//     a dyadic parameter rectangle is subdivided until its image diameter
//     is below a threshold times its distance to the target, then
//     integrated with a fixed high-order rule.
//   - The target's OWN patch induces a weakly singular integral: on a
//     smooth patch r·n(y) = O(|r|²), so the Stokes double-layer integrand
//     is O(1/|r|) and absolutely convergent. The same recursion grades
//     rectangles into the singular point; at the depth cap the rectangle
//     containing the target is dropped, discarding O(2^-depth · L) of
//     integrand mass. The ½φ interior jump is then added analytically by
//     the operator (Apply) rather than captured by extrapolation.
//
// Subdivision is axis-aware: a rectangle splits only its longer image
// dimension until it is roughly isotropic (the graded rim stacks produce
// panels with aspect ratios of 10+; quartering those wastes a factor of
// two per level on the already-short dimension). Per-rectangle error
// decays like ((diam/2)/(diam/2+d))^{2q}, uniformly in how close the
// target sits to a panel edge — exactly the uniformity that edge-graded
// cap rims require. The rule's order is independent of the coarse Nyström
// order; density values are interpolated from the coarse grid through
// barycentric Lagrange coefficients, so the resulting blocks compose
// directly with the per-patch coarse unknowns.
//
// Because the subdivision tree is dyadic per axis, rectangle geometry
// (positions, weighted cross products, interpolation coefficients) is
// shared between every target refining into the same patch. The context
// caches rectangles down to adaptCacheDepth per axis; deeper rectangles
// are target-specific (the tail of the recursion around one singular
// point), so they are computed into reusable scratch instead. In the plan
// build a patch's cached rectangles live until the last target near it:
// buildCorrRange knows every target's near list before it starts, deals
// the targets patch by patch in an order that keeps each patch's readers
// close together (chunkOrder), and drops the rectangles of each patch it
// has passed the last reader of, so a worker's cache holds the patches read
// around its current targets rather than every patch it has met.
//
// Below the rectangles sits a memo of their lines. A rectangle is the
// product of two dyadic intervals, and everything its fill takes from one
// axis — the rule's nodes mapped onto the interval, their coarse
// interpolation rows, the patch basis's value and derivative rows at them,
// and the basis rows of the three sample lines — depends on the interval
// and the patch order only. A build meets about a thousand distinct
// intervals across millions of fills, deep rectangles included, so the
// context tabulates each interval once (lineRows), each row by
// quadrature.LagrangeCoeffsInto at the parameter the fill would have
// computed, and every fill reads its two intervals' rows: the same bits,
// without the divisions. The memo is capped (lineMemoCap) and cleared when
// full, which bounds the long-lived contexts of the solver's pool. A context
// is cheap mutable state and is NOT safe for concurrent use; concurrency
// comes from giving each user its own context — the parallel plan build
// (plan.go) shards one per worker, and the Solver keeps a sync.Pool for
// the on-the-fly evaluation paths. Values never depend on which context
// computes them, so the sharding is invisible to results.
//
// The velocity path (dlVelocity) needs the density at every quadrature node
// of every rectangle it integrates, and that interpolation depends on the
// rectangle and the density only — never on the target. It is therefore done
// once per rectangle per density, by a separable two-stage contraction
// (densityAt), and kept on the cached rectangles as a memo stamped with the
// density's epoch: EvalVelocity draws one epoch per call, so every target of
// the call (on whichever pool thread) reuses the memos of the contexts it
// passes through, and a context that later meets another density — another
// call, another solver state — can never mistake an old memo for a current
// one. Deep rectangles are target-specific and interpolate into scratch.
//
// The plan build's cost is two loops per integrated rectangle — the fill of
// its quadrature frame (patch.TensorFrame: positions and weighted cross
// products at the 6×6 nodes, from the patch's value grid) and the block
// integration (integrateBlock: the kernel at the 36 nodes contracted with
// the coarse interpolation into the six planes of the node block) — and
// the 3×3 samples of every visited rectangle (patch.TensorEval), the two
// fills on their intervals' memoized rows. All three run AVX2 kernels
// where the CPU has them, selected once from cpuid: exact VSQRTPD/VDIVPD,
// no FMA, every sum in the portable loop's order, so the plan is the same
// bytes on either kernel. The Go loops stay as the
// portable fallback and the tests' reference.

const (
	// adaptAlpha is the refinement threshold: a rectangle is integrated
	// once its image diameter is at most alpha times the sampled distance
	// to the target. Accepted rectangles then sit at true distance
	// d ≥ diam(1/alpha − 1/2), for a per-rectangle Gauss-Legendre error of
	// roughly ((diam/2)/(diam/2+d))^{2q} ≈ 0.35^{2q}. The value must stay
	// below ~1.3 or rectangles diagonally adjacent to the singular point
	// recurse forever (their distance-to-size ratio is self-similar).
	adaptAlpha = 0.7
	// adaptAlphaGrow relaxes the acceptance threshold per level: the ring
	// of rectangles at depth ℓ carries O(2^-ℓ) of the integrand mass, so
	// deep rings may be integrated with proportionally fewer digits at no
	// cost to the total. The growth is capped so the self-similar
	// worst-case ratio still forces refinement toward the singular point.
	adaptAlphaGrow = 0.1
	adaptAlphaMax  = 1.2
	// adaptMaxDepth caps the per-axis recursion. Rectangles shrink by 2
	// per level, so the dropped singular rectangle at the cap carries
	// O(2^-depth) of the weakly-singular integrand mass.
	adaptMaxDepth = 16
	// adaptCacheDepth is the deepest per-axis level kept in the shared
	// cache.
	adaptCacheDepth = 6
	// adaptOrder is the tensor Gauss-Legendre order of the per-rectangle
	// rule (independent of the coarse Nyström order). With the acceptance
	// threshold above, each rectangle integrates to ~(0.35)^{2·order} —
	// ≈ 3e-6 at order 6 — well below the coarse far-field rule's error at
	// the near-zone boundary.
	adaptOrder = 6
	// adaptAspect is the image aspect ratio beyond which a rectangle
	// splits only its longer dimension.
	adaptAspect = 2.0
)

// rectGeom holds the geometry of one dyadic rectangle of one patch.
type rectGeom struct {
	samples [9][3]float64 // 3×3 tensor position samples
	diam    float64
	uLen    float64 // image length along u (at mid-v)
	vLen    float64
	// Integration data (nil/false until first integrated; refilled each
	// time on the scratch rect). q holds six planes of qi² values, each
	// row-major over the nodes (i, j): the positions x, y, z, then the
	// weighted cross products du×dv · (wi·wj·su·sv) x, y, z. cu and cv are
	// the coarse rows of the rectangle's u and v intervals (lineRows.c).
	q    []float64
	cu   []float64 // qi rows of qc coarse-interpolation coefficients (u)
	cv   []float64 // same for v, then 3 values of slack (see lineRows.c)
	quad bool
	// Density memo of the velocity path: three planes (x, y, z) of qi²
	// values, the density of epoch phEpoch at the quadrature nodes. The
	// scratch rect's is refilled for every target.
	ph      []float64
	phEpoch uint64
}

// lineRows tabulates one dyadic parameter interval [t0, t1] of one patch
// order: everything a rectangle's fill needs from one of its two axes, each
// row from quadrature.LagrangeCoeffsInto at its own parameter. It is shared
// by every rectangle, of every patch of the order and every target, that
// has the interval on either axis, and is never written after it is filled.
type lineRows struct {
	// c holds the coarse rows of the rule's nodes mapped onto the interval:
	// qi rows of qc coefficients, then 3 values of slack — the block kernel
	// reads a row in groups of four coarse nodes, the last group past the
	// row's end, and what it reads there lands in lanes it never stores.
	c     []float64
	frame []float64 // patch.TabulateFrameLines of the patch basis there
	samp  []float64 // patch.TabulateLines at t0, (t0+t1)/2, t1
}

// lineMemoCap bounds a context's line memo, in intervals: the context that
// fills one more clears it first. A plan build meets about a thousand
// distinct intervals per patch order, so a build never clears; the cap
// keeps the long-lived contexts of the solver's pool bounded (≈7 MB at
// patch order 8 and QuadNodes 9).
const lineMemoCap = 1 << 12

// adaptiveCtx bundles the adaptive rule plus its per-patch geometry caches
// for one coarse discretization order. Owned by a single Solver.
type adaptiveCtx struct {
	qc     int       // coarse nodes per dimension (interpolation grid)
	cNodes []float64 // coarse Gauss-Legendre nodes
	cBW    []float64 // barycentric weights of cNodes
	qi     int       // integration nodes per dimension
	iNodes []float64
	iW     []float64

	rects map[*patch.Patch]map[uint64]*rectGeom
	free  []*rectGeom // dropped rectangles, their q planes to reuse

	// lines[Q][d][i] is the memo of interval i of depth d for patch order
	// Q, filled on first use; nLines counts its entries.
	lines  [][adaptMaxDepth + 1][]*lineRows
	nLines int

	// Reusable scratch: one deep rectangle and the contraction buffers.
	srg rectGeom
	kp  []float64 // the block kernel's products, symPlanes · qi²
	m1  []float64 // stage-1 moments, symPlanes · qi · qc rounded up to 4
	pt  []float64 // densityAt's stage-1 buffer, 3 · qi · qc
}

func newAdaptiveCtx(qCoarse int) *adaptiveCtx {
	cn, _ := quadrature.GaussLegendre(qCoarse)
	in, iw := quadrature.GaussLegendre(adaptOrder)
	qi := adaptOrder
	ac := &adaptiveCtx{
		qc: qCoarse, cNodes: cn, cBW: quadrature.BaryWeights(cn),
		qi: qi, iNodes: in, iW: iw,
		rects: map[*patch.Patch]map[uint64]*rectGeom{},
		kp:    make([]float64, symPlanes*qi*qi),
		m1:    make([]float64, symPlanes*qi*((qCoarse+3)&^3)),
		pt:    make([]float64, 3*qi*qCoarse),
	}
	ac.allocQuad(&ac.srg)
	ac.srg.ph = make([]float64, 3*qi*qi)
	return ac
}

// allocQuad gives rg the frame planes fillQuad writes.
func (ac *adaptiveCtx) allocQuad(rg *rectGeom) {
	rg.q = make([]float64, 6*ac.qi*ac.qi)
}

// span converts (depth, idx) into the dyadic parameter interval
// [-1+h·idx, -1+h·(idx+1)] with h = 2/2^depth.
func span(depth, idx uint64) (lo, hi float64) {
	h := 2.0 / float64(uint64(1)<<depth)
	lo = -1 + h*float64(idx)
	return lo, lo + h
}

// lineRowsOf returns the memo entry of interval (depth, idx) for patch
// order q, tabulating it on first use.
func (ac *adaptiveCtx) lineRowsOf(q int, depth, idx uint64) *lineRows {
	if q < len(ac.lines) {
		if lv := ac.lines[q][depth]; lv != nil {
			if lr := lv[idx]; lr != nil {
				return lr
			}
		}
	}
	if ac.nLines == lineMemoCap {
		ac.lines, ac.nLines = nil, 0
	}
	for len(ac.lines) <= q {
		ac.lines = append(ac.lines, [adaptMaxDepth + 1][]*lineRows{})
	}
	lv := ac.lines[q][depth]
	if lv == nil {
		lv = make([]*lineRows, 1<<depth)
		ac.lines[q][depth] = lv
	}
	lr := ac.tabulate(q, depth, idx)
	lv[idx] = lr
	ac.nLines++
	return lr
}

// tabulate fills the rows of interval (depth, idx) for patch order q.
func (ac *adaptiveCtx) tabulate(q int, depth, idx uint64) *lineRows {
	qi, qc, n := ac.qi, ac.qc, q+1
	nc, nf := qi*qc+3, 2*n*qi
	buf := make([]float64, nc+nf+3*n)
	lr := &lineRows{c: buf[:nc:nc], frame: buf[nc : nc+nf : nc+nf], samp: buf[nc+nf:]}
	t0, t1 := span(depth, idx)
	var ts [adaptOrder]float64
	for i := range ts {
		ts[i] = t0 + (t1-t0)*(ac.iNodes[i]+1)/2
		quadrature.LagrangeCoeffsInto(lr.c[i*qc:(i+1)*qc], ac.cNodes, ac.cBW, ts[i])
	}
	patch.TabulateFrameLines(q, ts[:], lr.frame)
	patch.TabulateLines(q, []float64{t0, (t0 + t1) / 2, t1}, lr.samp)
	return lr
}

// fillSamples evaluates the 3×3 position samples, diameter and side
// lengths of rectangle (du, iu, dv, iv) into rg.
func (ac *adaptiveCtx) fillSamples(rg *rectGeom, pp *patch.Patch, du, iu, dv, iv uint64) {
	pp.TensorEval(ac.lineRowsOf(pp.Q, du, iu).samp, ac.lineRowsOf(pp.Q, dv, iv).samp, rg.samples[:])
	// One square root: a correctly rounded root is monotone, so the root of
	// the largest squared distance is the largest distance, to the bit.
	var d2max float64
	for i := 0; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			if d2 := dist2(rg.samples[i], rg.samples[j]); d2 > d2max {
				d2max = d2
			}
		}
	}
	rg.diam = math.Sqrt(d2max)
	rg.uLen = dist3(rg.samples[0*3+1], rg.samples[2*3+1])
	rg.vLen = dist3(rg.samples[1*3+0], rg.samples[1*3+2])
}

// fillQuad builds the integration-node geometry of a rectangle into rg
// (whose planes must be allocated) and points it at its intervals' coarse
// interpolation rows.
func (ac *adaptiveCtx) fillQuad(rg *rectGeom, pp *patch.Patch, du, iu, dv, iv uint64) {
	lu, lv := ac.lineRowsOf(pp.Q, du, iu), ac.lineRowsOf(pp.Q, dv, iv)
	u0, u1 := span(du, iu)
	v0, v1 := span(dv, iv)
	rg.cu, rg.cv = lu.c[:ac.qi*ac.qc], lv.c
	pp.TensorFrame(lu.frame, lv.frame, ac.iW, ac.iW, (u1-u0)*(v1-v0)/4, rg.q)
	rg.quad = true
}

// getRect returns the rectangle (du, iu, dv, iv) of patch pp: from the
// shared cache at shallow depths, from scratch below.
func (ac *adaptiveCtx) getRect(pp *patch.Patch, du, iu, dv, iv uint64) *rectGeom {
	if du > adaptCacheDepth || dv > adaptCacheDepth {
		ac.srg.quad = false
		ac.fillSamples(&ac.srg, pp, du, iu, dv, iv)
		return &ac.srg
	}
	cache := ac.rects[pp]
	if cache == nil {
		cache = map[uint64]*rectGeom{}
		ac.rects[pp] = cache
	}
	// du, dv ≤ 6 ⇒ iu, iv < 64.
	key := du<<28 | dv<<24 | iu<<12 | iv
	if rg, ok := cache[key]; ok {
		return rg
	}
	rg := &rectGeom{}
	if k := len(ac.free); k > 0 {
		rg, ac.free = ac.free[k-1], ac.free[:k-1]
		*rg = rectGeom{q: rg.q}
	}
	ac.fillSamples(rg, pp, du, iu, dv, iv)
	cache[key] = rg
	return rg
}

// dropRects releases the cached rectangles of pp: the plan build calls it
// once no later target of the build reads pp, and the next rectangles the
// context caches reuse their planes.
func (ac *adaptiveCtx) dropRects(pp *patch.Patch) {
	for _, rg := range ac.rects[pp] {
		ac.free = append(ac.free, rg)
	}
	delete(ac.rects, pp)
}

// dlBlock accumulates the double-layer contribution of patch pp to target x
// into the correction block m (six planes of qc² values, a node block of plan.go): the
// density at each quadrature point is interpolated from the patch's coarse
// grid, so m composes directly with the patch's coarse unknowns. The target
// may lie on the patch (the weakly singular case).
func (ac *adaptiveCtx) dlBlock(m []float64, pp *patch.Patch, x [3]float64) {
	ac.visit(m, nil, pp, x, 0, 0, 0, 0)
}

// densityEpoch issues process-unique density epochs (0 is never issued, so
// a zero-valued memo is never current).
var densityEpoch atomic.Uint64

func newDensityEpoch() uint64 { return densityEpoch.Add(1) }

// dlVelocity evaluates the double-layer velocity induced at x by patch pp
// carrying the coarse nodal density phi (3qc² values, xyz-interleaved over
// the qc x qc grid), accumulating into dst[0:3]. Every call is its own
// density epoch, so phi may change freely between calls.
func (ac *adaptiveCtx) dlVelocity(dst []float64, pp *patch.Patch, x [3]float64, phi []float64) {
	ac.dlVelocityAt(newDensityEpoch(), dst, pp, x, phi)
}

// dlVelocityAt is dlVelocity within the density epoch the caller drew:
// every call of one epoch must carry the same phi for a given patch, and in
// return the density is interpolated to a cached rectangle's nodes once per
// epoch instead of once per target.
func (ac *adaptiveCtx) dlVelocityAt(epoch uint64, dst []float64, pp *patch.Patch, x [3]float64, phi []float64) {
	ac.visit(nil, &velAcc{dst: dst, phi: phi, epoch: epoch}, pp, x, 0, 0, 0, 0)
}

type velAcc struct {
	dst   []float64
	phi   []float64
	epoch uint64
}

func (ac *adaptiveCtx) visit(m []float64, va *velAcc, pp *patch.Patch, x [3]float64, du, iu, dv, iv uint64) {
	rg := ac.getRect(pp, du, iu, dv, iv)
	// One square root, as for the diameter.
	d2min := math.Inf(1)
	for s := range rg.samples {
		if d2 := dist2(rg.samples[s], x); d2 < d2min {
			d2min = d2
		}
	}
	dmin := math.Sqrt(d2min)
	depth := du
	if dv > depth {
		depth = dv
	}
	alpha := adaptAlpha * (1 + adaptAlphaGrow*float64(depth))
	if alpha > adaptAlphaMax {
		alpha = adaptAlphaMax
	}
	if rg.diam > alpha*dmin {
		splitU := du < adaptMaxDepth && rg.uLen >= rg.vLen/adaptAspect
		splitV := dv < adaptMaxDepth && rg.vLen >= rg.uLen/adaptAspect
		// Keep anisotropic rectangles splitting their longer side only.
		if splitU && splitV {
			if rg.uLen > adaptAspect*rg.vLen {
				splitV = false
			} else if rg.vLen > adaptAspect*rg.uLen {
				splitU = false
			}
		}
		switch {
		case splitU && splitV:
			ac.visit(m, va, pp, x, du+1, 2*iu, dv+1, 2*iv)
			ac.visit(m, va, pp, x, du+1, 2*iu, dv+1, 2*iv+1)
			ac.visit(m, va, pp, x, du+1, 2*iu+1, dv+1, 2*iv)
			ac.visit(m, va, pp, x, du+1, 2*iu+1, dv+1, 2*iv+1)
			return
		case splitU:
			ac.visit(m, va, pp, x, du+1, 2*iu, dv, iv)
			ac.visit(m, va, pp, x, du+1, 2*iu+1, dv, iv)
			return
		case splitV:
			ac.visit(m, va, pp, x, du, iu, dv+1, 2*iv)
			ac.visit(m, va, pp, x, du, iu, dv+1, 2*iv+1)
			return
		}
		if dmin <= rg.diam/2 {
			// Depth cap reached with the target inside or touching the
			// rectangle: drop it (weakly singular integrand, O(diam) mass).
			return
		}
	}
	if !rg.quad {
		if rg.q == nil {
			ac.allocQuad(rg)
		}
		ac.fillQuad(rg, pp, du, iu, dv, iv)
	}
	if va != nil {
		integrateVel(va.dst, rg, ac.densityOn(rg, va), x)
	} else {
		ac.integrateBlock(m, rg, x)
	}
}

// integrateBlock scatters the rectangle's kernel moments into the coarse
// correction block through a two-stage contraction: first over the
// v-dimension interpolation, then over u. The kernel c·r_a·r_b is symmetric
// in (a, b) and the interpolation weights are scalars, so only the six
// planes a ≤ b of the block exist (see the node block of plan.go). The AVX2
// kernel takes the whole 6×6 rule; the portable loop is its reference.
func (ac *adaptiveCtx) integrateBlock(m []float64, rg *rectGeom, x [3]float64) {
	if useAVX2 && adaptOrder == 6 {
		integrateBlockAVX2(rg.q, rg.cv, rg.cu, ac.kp, ac.m1, m, ac.qc, &x)
		return
	}
	integrateBlockGo(m, rg, ac.m1, ac.qc, x)
}

// integrateBlockGo is the portable loop and the AVX2 kernel's reference.
// Stage 1 sums, per node row i and coarse v-node jc, the six moments
// Σ_j k_ab(i, j)·cv[j][jc] in node order into m1 (qi rows of qc entries of
// six planes, in m1's first symPlanes·qi·qc values); stage 2 sums
// Σ_i cu[i][ic]·m1[i][jc] in row order and adds it to m. A node at the
// target is skipped. The conversions round every product on its own, as
// VMULPD does: without them the spec lets a compiler fuse x*y + z into an
// FMA.
func integrateBlockGo(m []float64, rg *rectGeom, m1 []float64, qc int, x [3]float64) {
	qi := len(rg.cu) / qc
	m1 = m1[:symPlanes*qi*qc]
	clear(m1)
	n := qi * qi
	px, py, pz := rg.q[:n], rg.q[n:2*n], rg.q[2*n:3*n]
	wx, wy, wz := rg.q[3*n:4*n], rg.q[4*n:5*n], rg.q[5*n:6*n]
	for i := 0; i < qi; i++ {
		row := m1[i*symPlanes*qc : (i+1)*symPlanes*qc]
		// Node row i of each plane, restated so the loop carries no bounds
		// checks.
		xs := px[i*qi : (i+1)*qi]
		ys, zs := py[i*qi : (i+1)*qi][:len(xs)], pz[i*qi : (i+1)*qi][:len(xs)]
		wxs, wys, wzs := wx[i*qi : (i+1)*qi][:len(xs)], wy[i*qi : (i+1)*qi][:len(xs)], wz[i*qi : (i+1)*qi][:len(xs)]
		for j := range xs {
			rx, ry, rz := x[0]-xs[j], x[1]-ys[j], x[2]-zs[j]
			r2 := float64(rx*rx) + float64(ry*ry) + float64(rz*rz)
			if r2 == 0 {
				continue
			}
			inv := 1 / math.Sqrt(r2)
			inv5 := inv * inv * inv * inv * inv
			rdotWN := float64(rx*wxs[j]) + float64(ry*wys[j]) + float64(rz*wzs[j])
			c := -3 / (4 * math.Pi) * inv5 * rdotWN
			cx, cy, cz := c*rx, c*ry, c*rz
			kxx, kxy, kxz, kyy, kyz, kzz := cx*rx, cx*ry, cx*rz, cy*ry, cy*rz, cz*rz
			for jc, w := range rg.cv[j*qc : (j+1)*qc] {
				e := row[jc*symPlanes : (jc+1)*symPlanes : (jc+1)*symPlanes]
				e[0] += float64(kxx * w)
				e[1] += float64(kxy * w)
				e[2] += float64(kxz * w)
				e[3] += float64(kyy * w)
				e[4] += float64(kyz * w)
				e[5] += float64(kzz * w)
			}
		}
	}
	nq := qc * qc
	for ic := 0; ic < qc; ic++ {
		for jc := 0; jc < qc; jc++ {
			var acc [symPlanes]float64
			for i := 0; i < qi; i++ {
				c := rg.cu[i*qc+ic]
				e := m1[(i*qc+jc)*symPlanes : (i*qc+jc+1)*symPlanes : (i*qc+jc+1)*symPlanes]
				acc[0] += float64(c * e[0])
				acc[1] += float64(c * e[1])
				acc[2] += float64(c * e[2])
				acc[3] += float64(c * e[3])
				acc[4] += float64(c * e[4])
				acc[5] += float64(c * e[5])
			}
			for p, v := range acc {
				m[p*nq+ic*qc+jc] += v
			}
		}
	}
}

// densityOn returns va's density at the quadrature nodes of rg (three
// planes, see rectGeom.ph): interpolated afresh on the (target-specific) deep
// rectangle, read from the memo of a cached rectangle, which is refilled
// when it belongs to another epoch.
func (ac *adaptiveCtx) densityOn(rg *rectGeom, va *velAcc) []float64 {
	if rg == &ac.srg {
		ac.densityAt(rg.ph, rg, va.phi)
		return rg.ph
	}
	if rg.phEpoch != va.epoch {
		if rg.ph == nil {
			rg.ph = make([]float64, 3*ac.qi*ac.qi)
		}
		ac.densityAt(rg.ph, rg, va.phi)
		rg.phEpoch = va.epoch
	}
	return rg.ph
}

// densityAt interpolates the coarse nodal density phi to the rectangle's
// quadrature nodes: component a of ph[a·qi² + i·qi+j] is
// Σ_ic Σ_jc cu[i][ic] cv[j][jc] ϕ[ic][jc], contracted over u first (into
// ac.pt), then over v.
func (ac *adaptiveCtx) densityAt(ph []float64, rg *rectGeom, phi []float64) {
	qc, qi := ac.qc, ac.qi
	n := qi * qi
	pt := ac.pt
	for i := 0; i < qi; i++ {
		cu := rg.cu[i*qc : (i+1)*qc]
		for jc := 0; jc < qc; jc++ {
			var t0, t1, t2 float64
			for ic, c := range cu {
				kk := 3 * (ic*qc + jc)
				t0 += c * phi[kk]
				t1 += c * phi[kk+1]
				t2 += c * phi[kk+2]
			}
			o := 3 * (i*qc + jc)
			pt[o], pt[o+1], pt[o+2] = t0, t1, t2
		}
	}
	fx, fy, fz := ph[:n], ph[n:2*n], ph[2*n:3*n]
	for i := 0; i < qi; i++ {
		row := pt[3*i*qc : 3*(i+1)*qc]
		for j := 0; j < qi; j++ {
			var p0, p1, p2 float64
			for jc, c := range rg.cv[j*qc : (j+1)*qc] {
				p0 += c * row[3*jc]
				p1 += c * row[3*jc+1]
				p2 += c * row[3*jc+2]
			}
			k := i*qi + j
			fx[k], fy[k], fz[k] = p0, p1, p2
		}
	}
}

// integrateVel accumulates the rectangle's double-layer velocity at x into
// dst[0:3], with ph the density at the rectangle's quadrature nodes (three
// planes). The AVX2 kernel takes the nodes four at a time and stops before
// a group holding a node at the target; the portable loop sums the rest.
func integrateVel(dst []float64, rg *rectGeom, ph []float64, x [3]float64) {
	a := [3]float64{dst[0], dst[1], dst[2]}
	done := 0
	if useAVX2 {
		done = integrateVelAVX2(rg.q, ph, len(ph)/3, &x, &a)
	}
	integrateVelGo(&a, rg.q, ph, x, done)
	dst[0], dst[1], dst[2] = a[0], a[1], a[2]
}

// integrateVelGo is the portable loop and the AVX2 kernel's reference: it
// adds the nodes from, from+1, … of the planes q (see rectGeom) with density
// planes ph to a, in node order. A node at the target is skipped, not
// added as zero (−0 + 0 is +0). The conversions round every product on its
// own, as VMULPD does: without them the spec lets a compiler fuse x*y + z
// into an FMA, and Go does on arm64.
func integrateVelGo(a *[3]float64, q, ph []float64, x [3]float64, from int) {
	n := len(ph) / 3
	px, py, pz := q[:n], q[n:2*n], q[2*n:3*n]
	wx, wy, wz := q[3*n:4*n], q[4*n:5*n], q[5*n:6*n]
	fx, fy, fz := ph[:n], ph[n:2*n], ph[2*n:3*n]
	a0, a1, a2 := a[0], a[1], a[2]
	for k := from; k < n; k++ {
		rx, ry, rz := x[0]-px[k], x[1]-py[k], x[2]-pz[k]
		r2 := float64(rx*rx) + float64(ry*ry) + float64(rz*rz)
		if r2 == 0 {
			continue
		}
		inv := 1 / math.Sqrt(r2)
		inv5 := inv * inv * inv * inv * inv
		rdotWN := float64(rx*wx[k]) + float64(ry*wy[k]) + float64(rz*wz[k])
		rdotPhi := float64(rx*fx[k]) + float64(ry*fy[k]) + float64(rz*fz[k])
		c := -3 / (4 * math.Pi) * inv5 * rdotWN * rdotPhi
		a0 += float64(c * rx)
		a1 += float64(c * ry)
		a2 += float64(c * rz)
	}
	a[0], a[1], a[2] = a0, a1, a2
}

func dist3(a, b [3]float64) float64 { return math.Sqrt(dist2(a, b)) }

func dist2(a, b [3]float64) float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return dx*dx + dy*dy + dz*dz
}
