package bie

import (
	"math"
	"sync"

	"rbcflow/internal/forest"
	"rbcflow/internal/kernels"
	"rbcflow/internal/par"
	"rbcflow/internal/quadrature"
	"rbcflow/internal/telemetry"
	"rbcflow/internal/trace"
)

// Mode names how the double-layer operator is applied. There is one scheme;
// the type, its value and WithMode remain only because bench/ links them.
type Mode int

// ModeLocal: coarse-grid FMM + precomputed local singular corrections (the
// scheme proposed in the paper's §5.2 Discussion).
const ModeLocal Mode = 0

// Solver is the standard WallOperator implementation: it applies and
// inverts the Nyström system (paper Eq. 3.5) through a pluggable far-field
// backend (FMM or direct summation) and a NearField of precomputed dense
// correction blocks (a QuadPlan — rank-local by default, or a shared/cached
// full-surface plan). Construct with NewWallOperator. A Solver is safe for
// concurrent use by independent par worlds once constructed.
type Solver struct {
	S *Surface

	far  FarField
	near NearField
	// coarse is the coarse level of the two-level solve (nil when its
	// operator could not be factored: Precondition is then the identity).
	coarse *coarseLevel
	// acPool holds adaptiveCtx instances for the on-the-fly near-singular
	// evaluations (EvalVelocity, OnSurfaceVelocity); pooling keeps the
	// rect-geometry caches warm across calls while letting concurrent
	// callers each hold a private context.
	acPool sync.Pool

	// Rank-local data (fixed at construction for a given comm geometry).
	rank, size int
	patchLo    int
	patchHi    int
	nodeLo     int
	nodeHi     int

	// tel receives the operator's spans and solve statistics; nil disables
	// all recording at no hot-path cost.
	tel *telemetry.Registry
	// health guards the matvec output and feeds the GMRES detectors via the
	// package-level Solve; nil disables all checks at no hot-path cost.
	health *trace.Health
}

// FMMConfig bundles the FMM accuracy knobs.
type FMMConfig struct {
	Order       int
	LeafSize    int
	DirectBelow int
}

// Surface returns the discretized boundary the operator acts on.
func (sv *Solver) Surface() *Surface { return sv.S }

// Plan returns the solver's near-field backend as a plan when it is one
// (nil for a custom NearField).
func (sv *Solver) Plan() *QuadPlan {
	p, _ := sv.near.(*QuadPlan)
	return p
}

// acquireCtx checks an adaptive-quadrature context out of the pool.
func (sv *Solver) acquireCtx() *adaptiveCtx { return sv.acPool.Get().(*adaptiveCtx) }

func (sv *Solver) releaseCtx(ac *adaptiveCtx) { sv.acPool.Put(ac) }

// nearPatches returns the patches within their own near-zone distance of x;
// selfPid (if >= 0) is always included without a distance test. The
// near-zone radius scales with the patch's LONGEST side, not sqrt(area):
// for the strongly anisotropic panels of edge-graded rim stacks the coarse
// rule's node spacing — and so the distance at which it stops resolving a
// target — is set by the long dimension.
//
// The test is three-stage: a cached bounding-box rejection, an
// early-accept when one of the patch's own quadrature nodes is already
// within range (the nodes lie ON the patch, so the true distance can only
// be smaller), and the Newton closest-point solve only in the remaining
// gray zone. Edge-graded rim stacks put many panels near every rim target,
// so the cheap stages carry almost all of the traffic. The parallel plan
// build calls this from many workers at once: everything here is read-only
// after the sync.Once bbox fill.
func (s *Surface) nearPatches(x [3]float64, selfPid int) []int {
	s.bboxOnce.Do(s.fillBBoxes)
	var out []int
	for j, pp := range s.F.Patches {
		if j == selfPid {
			out = append(out, j)
			continue
		}
		dEps := s.P.NearFactor * s.LMax[j]
		if boxDist(x, s.bboxLo[j], s.bboxHi[j]) > dEps {
			continue
		}
		nodeDist := math.Inf(1)
		for k := j * s.NQ; k < (j+1)*s.NQ; k++ {
			if d := dist3(s.Pts[k], x); d < nodeDist {
				nodeDist = d
			}
		}
		if nodeDist <= dEps {
			out = append(out, j)
			continue
		}
		// The coarse node grid covers the patch to within about half its
		// node spacing; beyond that slack the true distance cannot reach
		// dEps.
		if nodeDist > dEps+0.35*s.LMax[j] {
			continue
		}
		if _, _, _, dist := pp.ClosestPoint(x); dist <= dEps {
			out = append(out, j)
		}
	}
	return out
}

func (s *Surface) fillBBoxes() {
	np := s.F.NumPatches()
	s.bboxLo = make([][3]float64, np)
	s.bboxHi = make([][3]float64, np)
	for j, pp := range s.F.Patches {
		s.bboxLo[j], s.bboxHi[j] = pp.BBox(0)
	}
}

func boxDist(x [3]float64, lo, hi [3]float64) float64 {
	var d2 float64
	for d := 0; d < 3; d++ {
		if x[d] < lo[d] {
			d2 += (lo[d] - x[d]) * (lo[d] - x[d])
		} else if x[d] > hi[d] {
			d2 += (x[d] - hi[d]) * (x[d] - hi[d])
		}
	}
	return math.Sqrt(d2)
}

// addDLBlock accumulates w·D(x,y;n) into the six planes of the nq-node
// correction block m at source node mm (layout: see CorrBlock).
func addDLBlock(m []float64, nq, mm int, x, y, n [3]float64, w float64) {
	rx, ry, rz := x[0]-y[0], x[1]-y[1], x[2]-y[2]
	r2 := rx*rx + ry*ry + rz*rz
	if r2 == 0 {
		return
	}
	inv := 1 / math.Sqrt(r2)
	inv5 := inv * inv * inv * inv * inv
	rdotN := rx*n[0] + ry*n[1] + rz*n[2]
	c := -3 / (4 * math.Pi) * inv5 * rdotN * w
	cx, cy, cz := c*rx, c*ry, c*rz
	m[mm] += cx * rx
	m[nq+mm] += cx * ry
	m[2*nq+mm] += cx * rz
	m[3*nq+mm] += cy * ry
	m[4*nq+mm] += cy * rz
	m[5*nq+mm] += cz * rz
}

// Apply computes the Nyström operator (1/2 I + D + N)ϕ for the rank-local
// density segment (owned patches, 3·NQ values each). Collective.
func (sv *Solver) Apply(c *par.Comm, phiLocal []float64) []float64 {
	defer telemetry.Start(sv.tel, "bie.matvec")()
	s := sv.S
	nq := s.NQ
	nOwned := sv.nodeHi - sv.nodeLo

	// Null-space completion: scalar ∫ n·ϕ dS over all of Γ.
	var flux float64
	for k := 0; k < nOwned; k++ {
		g := sv.nodeLo + k
		n := s.Nrm[g]
		flux += (n[0]*phiLocal[3*k] + n[1]*phiLocal[3*k+1] + n[2]*phiLocal[3*k+2]) * s.W[g]
	}
	fluxArr := []float64{flux}

	// Coarse far-field sum over all nodes at owned nodes.
	srcPos := s.Pts[sv.nodeLo:sv.nodeHi]
	srcQ := make([]float64, nOwned*9)
	for k := 0; k < nOwned; k++ {
		g := sv.nodeLo + k
		kernels.TensorStrength(srcQ[k*9:(k+1)*9], phiLocal[3*k:3*k+3], s.Nrm[g], s.W[g])
	}
	prev := c.Label()
	c.SetLabel("BIE-FMM")
	stopFar := telemetry.Start(sv.tel, "bie.matvec.far")
	u := sv.far.Evaluate(c, srcPos, srcQ, s.Pts[sv.nodeLo:sv.nodeHi])
	stopFar()
	c.SetLabel(prev)

	phiAll, _ := par.AllgathervFlat(c, phiLocal)
	c.AllreduceSum(fluxArr)
	stopNear := telemetry.Start(sv.tel, "bie.matvec.near")
	par.For(nOwned, applyGrain, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			dst := u[3*k : 3*k+3]
			for _, cb := range sv.near.Blocks(sv.nodeLo + k) {
				a0, a1, a2 := cb.apply(phiAll[cb.Pid*3*nq : (cb.Pid+1)*3*nq])
				dst[0] += a0
				dst[1] += a1
				dst[2] += a2
			}
			// The adaptive corrections compute the principal value; the
			// interior-limit jump is added analytically.
			dst[0] += 0.5 * phiLocal[3*k]
			dst[1] += 0.5 * phiLocal[3*k+1]
			dst[2] += 0.5 * phiLocal[3*k+2]
		}
	})
	stopNear()

	// + N ϕ. The ½ϕ jump of (1/2 I + D)ϕ was added explicitly above; for
	// constant ϕ₀ the identity Dϕ₀ = ϕ₀ inside makes the operator value
	// exactly ϕ₀, which is (1/2 + 1/2)ϕ₀ in the paper's PV notation.
	for k := 0; k < nOwned; k++ {
		g := sv.nodeLo + k
		n := s.Nrm[g]
		for a := 0; a < 3; a++ {
			u[3*k+a] += n[a] * fluxArr[0]
		}
	}
	sv.health.CheckFinite("bie.matvec.out", u)
	return u
}

// TelemetryRegistry exposes the operator's metrics sink (nil when none was
// attached); Solve probes it so solves record their span and GMRES
// statistics.
func (sv *Solver) TelemetryRegistry() *telemetry.Registry { return sv.tel }

// Health exposes the operator's numerical-health monitor (nil when none was
// attached); Solve probes it the same way it probes TelemetryRegistry.
func (sv *Solver) Health() *trace.Health { return sv.health }

// EvalVelocity computes u^Γ = Dϕ at arbitrary rank-local targets, using the
// coarse far-field backend plus on-the-fly near-singular corrections for
// targets whose closest-point data cls marks them inside a near zone.
// Collective.
func (sv *Solver) EvalVelocity(c *par.Comm, phiLocal []float64, targets [][3]float64, cls []forest.Closest) []float64 {
	s := sv.S
	nq := s.NQ
	nOwned := sv.nodeHi - sv.nodeLo

	srcPos := s.Pts[sv.nodeLo:sv.nodeHi]
	srcQ := make([]float64, nOwned*9)
	for k := 0; k < nOwned; k++ {
		g := sv.nodeLo + k
		kernels.TensorStrength(srcQ[k*9:(k+1)*9], phiLocal[3*k:3*k+3], s.Nrm[g], s.W[g])
	}
	prev := c.Label()
	c.SetLabel("BIE-FMM")
	u := sv.far.Evaluate(c, srcPos, srcQ, targets)
	c.SetLabel(prev)
	phiAll, _ := par.AllgathervFlat(c, phiLocal)

	// Near-zone targets, then their corrections in disjoint chunks on the
	// node's worker pool: a target's correction touches only its own three
	// outputs, and one density epoch spans the call so every chunk reuses
	// the per-rectangle density memos of the contexts it draws.
	var near []int
	for ti, cl := range cls[:min(len(cls), len(targets))] {
		if cl.PatchID >= 0 && cl.Dist <= s.P.NearFactor*s.LMax[cl.PatchID] {
			near = append(near, ti)
		}
	}
	epoch := newDensityEpoch()
	par.For(len(near), evalGrain, func(lo, hi int) {
		ac := sv.acquireCtx()
		defer sv.releaseCtx(ac)
		for _, ti := range near[lo:hi] {
			x := targets[ti]
			dst := u[3*ti : 3*ti+3]
			for _, j := range s.nearPatches(x, cls[ti].PatchID) {
				// Subtract the inaccurate coarse contribution of patch j, then
				// add the adaptive near-singular quadrature. Off-surface targets
				// sit at positive distance from every patch, so every
				// contribution is a proper integral — no jump term, and no
				// smoothness assumption across rims (see adaptive.go).
				for mm := 0; mm < nq; mm++ {
					idx := j*nq + mm
					kernels.DoubleLayerVel(dst, x, s.Pts[idx], s.Nrm[idx],
						phiAll[idx*3:idx*3+3], -s.W[idx])
				}
				ac.dlVelocityAt(epoch, dst, s.F.Patches[j], x, phiAll[j*3*nq:(j+1)*3*nq])
			}
		}
	})
	return u
}

// Chunk sizes of the operator's target loops (problem-size-only chunking, see
// par.For): a near-correction row costs a few dense 6·NQ blocks, a
// near-zone target a full adaptive quadrature of every near patch.
const (
	applyGrain = 64
	evalGrain  = 8
)

// OnSurfaceVelocity evaluates the flow velocity limit at arbitrary
// on-surface points (different from the Nyström nodes) for verification
// (Fig. 9): u(x) = PV Dϕ(x) + ϕ(x)/2, where the principal value is computed
// by the adaptive singular quadrature and ϕ(x) is interpolated from the
// patch's coarse grid. The N-term is part of the operator, not of the
// represented velocity.
func (sv *Solver) OnSurfaceVelocity(c *par.Comm, phiLocal []float64, pid int, uu, vv float64) [3]float64 {
	s := sv.S
	nq := s.NQ
	pp := s.F.Patches[pid]
	x := pp.Eval(uu, vv)
	phiAll, _ := par.AllgathervFlat(c, phiLocal)

	// Coarse direct sum over every patch (verification-scale geometry), with
	// near patches replaced by the adaptive quadrature.
	var u [3]float64
	for k, y := range s.Pts {
		kernels.DoubleLayerVel(u[:], x, y, s.Nrm[k], phiAll[3*k:3*k+3], s.W[k])
	}
	ac := sv.acquireCtx()
	defer sv.releaseCtx(ac)
	epoch := newDensityEpoch()
	for _, j := range s.nearPatches(x, pid) {
		for mm := 0; mm < nq; mm++ {
			idx := j*nq + mm
			kernels.DoubleLayerVel(u[:], x, s.Pts[idx], s.Nrm[idx], phiAll[idx*3:idx*3+3], -s.W[idx])
		}
		ac.dlVelocityAt(epoch, u[:], s.F.Patches[j], x, phiAll[j*3*nq:(j+1)*3*nq])
	}
	// Interior limit = PV + ϕ(x)/2 with ϕ interpolated on the owning patch.
	nodes := s.Nodes1D()
	bw := quadrature.BaryWeights(nodes)
	cu := quadrature.LagrangeCoeffs(nodes, bw, uu)
	cv := quadrature.LagrangeCoeffs(nodes, bw, vv)
	q := s.P.QuadNodes
	for i := 0; i < q; i++ {
		if cu[i] == 0 {
			continue
		}
		for j := 0; j < q; j++ {
			cij := cu[i] * cv[j]
			k := pid*nq + i*q + j
			u[0] += 0.5 * cij * phiAll[3*k]
			u[1] += 0.5 * cij * phiAll[3*k+1]
			u[2] += 0.5 * cij * phiAll[3*k+2]
		}
	}
	return u
}
