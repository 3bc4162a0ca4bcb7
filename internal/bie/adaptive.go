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
// point), so they are computed into reusable scratch instead. A context
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
	// time on the scratch rect).
	pos  [][3]float64 // qi² positions, row-major over (i, j)
	wcr  [][3]float64 // du×dv · (wi·wj·su·sv) at each node
	cu   []float64    // qi rows of qc coarse-interpolation coefficients (u)
	cv   []float64    // same for v
	quad bool
	// Density memo of the velocity path: ph[k] is the density of epoch
	// phEpoch at quadrature node k (cached rectangles only).
	ph      [][3]float64
	phEpoch uint64
}

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

	// Reusable scratch: one deep rectangle, the tensor-eval buffers, and
	// the two-stage contraction buffer.
	srg      rectGeom
	sdu, sdv [][3]float64         // TensorDerivs outputs for quad grids
	sTu, sTv []float64            // mapped integration node parameters
	m1       [][symPlanes]float64 // stage-1 moments, qi · qc
	sph      [][3]float64         // density at the scratch rectangle's nodes
	pt       []float64            // densityAt's stage-1 buffer, 3 · qi · qc
}

func newAdaptiveCtx(qCoarse int) *adaptiveCtx {
	cn, _ := quadrature.GaussLegendre(qCoarse)
	in, iw := quadrature.GaussLegendre(adaptOrder)
	qi := adaptOrder
	ac := &adaptiveCtx{
		qc: qCoarse, cNodes: cn, cBW: quadrature.BaryWeights(cn),
		qi: qi, iNodes: in, iW: iw,
		rects: map[*patch.Patch]map[uint64]*rectGeom{},
		sdu:   make([][3]float64, qi*qi),
		sdv:   make([][3]float64, qi*qi),
		sTu:   make([]float64, qi),
		sTv:   make([]float64, qi),
		m1:    make([][symPlanes]float64, qi*qCoarse),
		sph:   make([][3]float64, qi*qi),
		pt:    make([]float64, 3*qi*qCoarse),
	}
	ac.allocQuad(&ac.srg)
	return ac
}

// allocQuad gives rg the slices fillQuad writes.
func (ac *adaptiveCtx) allocQuad(rg *rectGeom) {
	rg.pos = make([][3]float64, ac.qi*ac.qi)
	rg.wcr = make([][3]float64, ac.qi*ac.qi)
	rg.cu = make([]float64, ac.qi*ac.qc)
	rg.cv = make([]float64, ac.qi*ac.qc)
}

// span converts (depth, idx) into the dyadic parameter interval
// [-1+h·idx, -1+h·(idx+1)] with h = 2/2^depth.
func span(depth, idx uint64) (lo, hi float64) {
	h := 2.0 / float64(uint64(1)<<depth)
	lo = -1 + h*float64(idx)
	return lo, lo + h
}

// fillSamples evaluates the 3×3 position samples, diameter and side
// lengths of rectangle (du, iu, dv, iv) into rg.
func (ac *adaptiveCtx) fillSamples(rg *rectGeom, pp *patch.Patch, du, iu, dv, iv uint64) {
	u0, u1 := span(du, iu)
	v0, v1 := span(dv, iv)
	us := [3]float64{u0, (u0 + u1) / 2, u1}
	vs := [3]float64{v0, (v0 + v1) / 2, v1}
	pp.TensorEval(us[:], vs[:], rg.samples[:])
	rg.diam = 0
	for i := 0; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			if d := dist3(rg.samples[i], rg.samples[j]); d > rg.diam {
				rg.diam = d
			}
		}
	}
	rg.uLen = dist3(rg.samples[0*3+1], rg.samples[2*3+1])
	rg.vLen = dist3(rg.samples[1*3+0], rg.samples[1*3+2])
}

// fillQuad builds the integration-node geometry and coarse interpolation
// coefficients of a rectangle into rg (whose slices must be allocated).
func (ac *adaptiveCtx) fillQuad(rg *rectGeom, pp *patch.Patch, du, iu, dv, iv uint64) {
	qi, qc := ac.qi, ac.qc
	u0, u1 := span(du, iu)
	v0, v1 := span(dv, iv)
	for i := 0; i < qi; i++ {
		ac.sTu[i] = u0 + (u1-u0)*(ac.iNodes[i]+1)/2
		ac.sTv[i] = v0 + (v1-v0)*(ac.iNodes[i]+1)/2
		quadrature.LagrangeCoeffsInto(rg.cu[i*qc:(i+1)*qc], ac.cNodes, ac.cBW, ac.sTu[i])
		quadrature.LagrangeCoeffsInto(rg.cv[i*qc:(i+1)*qc], ac.cNodes, ac.cBW, ac.sTv[i])
	}
	pp.TensorDerivs(ac.sTu, ac.sTv, rg.pos, ac.sdu, ac.sdv)
	scale := (u1 - u0) * (v1 - v0) / 4
	for i := 0; i < qi; i++ {
		for j := 0; j < qi; j++ {
			k := i*qi + j
			cr := patch.Cross(ac.sdu[k], ac.sdv[k])
			w := ac.iW[i] * ac.iW[j] * scale
			rg.wcr[k] = [3]float64{cr[0] * w, cr[1] * w, cr[2] * w}
		}
	}
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
	ac.fillSamples(rg, pp, du, iu, dv, iv)
	cache[key] = rg
	return rg
}

// dlBlock accumulates the double-layer contribution of patch pp to target x
// into the correction block m (six planes of qc² values, see CorrBlock): the
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
	dmin := math.Inf(1)
	for s := range rg.samples {
		if d := dist3(rg.samples[s], x); d < dmin {
			dmin = d
		}
	}
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
		if rg.pos == nil {
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
// v-dimension interpolation (m1[i][jc][plane]), then over u. The kernel
// c·r_a·r_b is symmetric in (a, b) and the interpolation weights are scalars,
// so only the six planes a ≤ b of the block exist (see CorrBlock).
func (ac *adaptiveCtx) integrateBlock(m []float64, rg *rectGeom, x [3]float64) {
	qc, qi := ac.qc, ac.qi
	m1 := ac.m1[:qi*qc]
	for i := range m1 {
		m1[i] = [symPlanes]float64{}
	}
	for i := 0; i < qi; i++ {
		row := m1[i*qc : (i+1)*qc]
		for j := 0; j < qi; j++ {
			k := i*qi + j
			pos, wcr := rg.pos[k], rg.wcr[k]
			rx, ry, rz := x[0]-pos[0], x[1]-pos[1], x[2]-pos[2]
			r2 := rx*rx + ry*ry + rz*rz
			if r2 == 0 {
				continue
			}
			inv := 1 / math.Sqrt(r2)
			inv5 := inv * inv * inv * inv * inv
			rdotWN := rx*wcr[0] + ry*wcr[1] + rz*wcr[2]
			c := -3 / (4 * math.Pi) * inv5 * rdotWN
			cx, cy, cz := c*rx, c*ry, c*rz
			kxx, kxy, kxz, kyy, kyz, kzz := cx*rx, cx*ry, cx*rz, cy*ry, cy*rz, cz*rz
			for jc, w := range rg.cv[j*qc : (j+1)*qc] {
				e := &row[jc]
				e[0] += kxx * w
				e[1] += kxy * w
				e[2] += kxz * w
				e[3] += kyy * w
				e[4] += kyz * w
				e[5] += kzz * w
			}
		}
	}
	nq := qc * qc
	for ic := 0; ic < qc; ic++ {
		for jc := 0; jc < qc; jc++ {
			var acc [symPlanes]float64
			for i := 0; i < qi; i++ {
				c, e := rg.cu[i*qc+ic], &m1[i*qc+jc]
				acc[0] += c * e[0]
				acc[1] += c * e[1]
				acc[2] += c * e[2]
				acc[3] += c * e[3]
				acc[4] += c * e[4]
				acc[5] += c * e[5]
			}
			for p, v := range acc {
				m[p*nq+ic*qc+jc] += v
			}
		}
	}
}

// densityOn returns va's density at the quadrature nodes of rg: interpolated
// into scratch for the (target-specific) deep rectangle, read from the memo
// of a cached rectangle, which is refilled when it belongs to another epoch.
func (ac *adaptiveCtx) densityOn(rg *rectGeom, va *velAcc) [][3]float64 {
	if rg == &ac.srg {
		ac.densityAt(ac.sph, rg, va.phi)
		return ac.sph
	}
	if rg.phEpoch != va.epoch {
		if rg.ph == nil {
			rg.ph = make([][3]float64, ac.qi*ac.qi)
		}
		ac.densityAt(rg.ph, rg, va.phi)
		rg.phEpoch = va.epoch
	}
	return rg.ph
}

// densityAt interpolates the coarse nodal density phi to the rectangle's
// quadrature nodes: ph[i·qi+j] = Σ_ic Σ_jc cu[i][ic] cv[j][jc] ϕ[ic][jc],
// contracted over u first (into ac.pt), then over v.
func (ac *adaptiveCtx) densityAt(ph [][3]float64, rg *rectGeom, phi []float64) {
	qc, qi := ac.qc, ac.qi
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
	for i := 0; i < qi; i++ {
		row := pt[3*i*qc : 3*(i+1)*qc]
		for j := 0; j < qi; j++ {
			var p0, p1, p2 float64
			for jc, c := range rg.cv[j*qc : (j+1)*qc] {
				p0 += c * row[3*jc]
				p1 += c * row[3*jc+1]
				p2 += c * row[3*jc+2]
			}
			ph[i*qi+j] = [3]float64{p0, p1, p2}
		}
	}
}

// integrateVel accumulates the rectangle's double-layer velocity at x into
// dst[0:3], with ph the density at the rectangle's quadrature nodes.
func integrateVel(dst []float64, rg *rectGeom, ph [][3]float64, x [3]float64) {
	a0, a1, a2 := dst[0], dst[1], dst[2]
	wcrs := rg.wcr[:len(rg.pos)]
	ph = ph[:len(rg.pos)]
	for k, pos := range rg.pos {
		rx, ry, rz := x[0]-pos[0], x[1]-pos[1], x[2]-pos[2]
		r2 := rx*rx + ry*ry + rz*rz
		if r2 == 0 {
			continue
		}
		wcr, p := wcrs[k], ph[k]
		inv := 1 / math.Sqrt(r2)
		inv5 := inv * inv * inv * inv * inv
		rdotWN := rx*wcr[0] + ry*wcr[1] + rz*wcr[2]
		rdotPhi := rx*p[0] + ry*p[1] + rz*p[2]
		c := -3 / (4 * math.Pi) * inv5 * rdotWN * rdotPhi
		a0 += c * rx
		a1 += c * ry
		a2 += c * rz
	}
	dst[0], dst[1], dst[2] = a0, a1, a2
}

func dist3(a, b [3]float64) float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}
