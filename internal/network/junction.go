package network

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rbcflow/internal/patch"
)

// The blended junction model realizes each junction as a single smooth wall
// (overlapping hemisphere caps remain only as the per-node fallback):
//
//  1. Each incident segment's barrel is trimmed at an anisotropic "collar"
//     curve ell(phi) — per rim azimuth, the station closest to the node at
//     which every OTHER incident tube is at least one blend width Kappa
//     away from the rim point (so the blended field there equals the exact
//     circular tube) and the rim pullback sits inside the axis's spherical
//     Voronoi cell. The per-azimuth minimal stations are smoothed into a C1
//     trigonometric rim curve (collarCurve) that dominates the sampled
//     frontier, then re-validated densely. A tight azimuth therefore pushes
//     only its own sector of the collar deeper into the segment instead of
//     the whole rim circle — the fix for narrow bifurcations, where the
//     isotropic collar of earlier revisions had no feasible station at all.
//  2. The junction hull is the piece of the blended zero level set between
//     the collars. It is star-shaped about the node for straight incident
//     tubes, so it is parameterized by ray-casting from the node:
//     directions are organized into one sector per incident segment (the
//     spherical Voronoi cell of its axis), and each sector is an annulus of
//     patches from the rim curve's pullback out to the cell boundary.
//     Adjacent sectors share the exact bisector boundary and the hull
//     shares the exact collar rim curves with the warped barrel bands
//     (geometry.go), so the union of patches is watertight up to polynomial
//     interpolation error (pinned by the junction suite's volume ladder).
//
// If some junction has no feasible collars at the requested blend width,
// the planner halves the width and retries (up to BlendLadderDepth times —
// the automatic blend-width ladder): a smaller Kappa needs less rim
// clearance, so tighter junctions blend at the price of a sharper (but
// still C2) blend fillet. The largest fully-feasible width wins. Only if no
// rung of the ladder blends every junction do the infeasible nodes fall
// back to capsule caps (or StrictBlend reports them all in one BlendError).

// junctionEnd is one segment incidence at a junction node, with the data
// needed to trim its barrel and emit its hull sector.
type junctionEnd struct {
	seg    int
	end    int        // 0 = the segment's A end is at this node, 1 = B end
	axis   [3]float64 // unit, pointing from the node into the segment
	e1, e2 [3]float64 // orthonormal frame spanning the plane normal to axis
	// collar is the anisotropic collar station in arc length from this end.
	collar *collarCurve
	// tJoin is the scalar curve parameter where the warped collar bands hand
	// over to the straight barrel (set by finalizeJoins once all collars and
	// fallbacks are known).
	tJoin float64
	// tRim maps a rim azimuth to the collar's curve parameter; rim maps it
	// to the rim point in space. Both barrel and hull sample these same
	// closures, so the shared rim curve is exact.
	tRim func(phi float64) float64
	rim  func(phi float64) [3]float64
}

// junctionPlan is the blended realization of one junction node.
type junctionPlan struct {
	node    int
	blended bool
	ends    []junctionEnd
}

// segGeomCache shares curves and sweeps between planning and emission.
type segGeomCache struct {
	curves []*Curve
	sweeps []*sweep
}

func newSegGeomCache(n *Network) *segGeomCache {
	c := &segGeomCache{
		curves: make([]*Curve, len(n.Segs)),
		sweeps: make([]*sweep, len(n.Segs)),
	}
	for si := range n.Segs {
		c.curves[si] = n.Curve(si)
		c.sweeps[si] = newSweep(c.curves[si])
	}
	return c
}

// tAtArc returns the curve parameter at arc length ell from the given end
// (end 0 measures from t=0 forward, end 1 from t=1 backward): exact for
// straight segments (arc length is linear in t there), and by bisection on
// arcBetween to a fixed arc-length tolerance otherwise. The parameter is
// not quantized to any station grid, so collar searches place stations
// consistently regardless of segment length.
func tAtArc(cu *Curve, end int, ell float64) float64 {
	L := cu.Length()
	if ell <= 0 {
		if end == 1 {
			return 1
		}
		return 0
	}
	if ell >= L {
		if end == 1 {
			return 0
		}
		return 1
	}
	if cu.Straight() {
		if end == 1 {
			return 1 - ell/L
		}
		return ell / L
	}
	arcFrom := func(t float64) float64 {
		if end == 1 {
			return arcBetween(cu, t, 1)
		}
		return arcBetween(cu, 0, t)
	}
	// arcFrom is increasing in t for end 0 and decreasing for end 1.
	lo, hi := 0.0, 1.0
	tol := 1e-9 * L
	for it := 0; it < 64 && hi-lo > 1e-14; it++ {
		mid := 0.5 * (lo + hi)
		a := arcFrom(mid)
		if math.Abs(a-ell) <= tol {
			return mid
		}
		if (a < ell) == (end == 0) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// arcBetween returns the arc length of the curve between parameters ta < tb.
func arcBetween(cu *Curve, ta, tb float64) float64 {
	const m = 128
	var acc float64
	for i := 0; i < m; i++ {
		t := ta + (tb-ta)*(float64(i)+0.5)/m
		acc += patch.Norm(cu.Tangent(t)) * (tb - ta) / m
	}
	return acc
}

// NodeBlendIssue is one unblendable junction in a BlendError.
type NodeBlendIssue struct {
	Node   int
	Reason string
}

// BlendError aggregates every junction node that could not be blended at
// the requested blend radius (StrictBlend mode), so an imported network is
// diagnosable in a single build instead of one node per run.
type BlendError struct {
	// BlendRadius is the requested blend width in units of the smallest
	// segment radius; the feasibility ladder tried BlendLadderDepth
	// halvings of it before giving up.
	BlendRadius float64
	Nodes       []NodeBlendIssue
}

func (e *BlendError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network: %d junction(s) not blendable at blend radius %g (ladder tried %d halvings):", len(e.Nodes), e.BlendRadius, BlendLadderDepth)
	for _, ni := range e.Nodes {
		fmt.Fprintf(&b, "\n  node %d: %s", ni.Node, ni.Reason)
	}
	b.WriteString("\nlower BlendRadius (junction_blend), build without StrictBlend to fall back to capsule caps at these nodes, or adjust the network")
	return b.String()
}

const (
	// collarClearFactor is the rim clearance requirement in units of Kappa.
	collarClearFactor = 1.02
	// collarAzimuths is the number of azimuth stations of the per-azimuth
	// collar search; collarValidate the dense re-validation grid of the
	// smoothed curve; collarHarmonics the trigonometric fit order.
	collarAzimuths  = 48
	collarValidate  = 256
	collarHarmonics = 10
)

// voronoiMargin is the angular safety margin (radians) the rim pullback
// must keep to the Voronoi cell boundary toward a competing axis. It scales
// with the bisector angle so narrow cells (tight bifurcations) are not
// rejected by a margin wider than the cell itself, with floors on both
// sides to keep hull sectors non-degenerate.
func voronoiMargin(a, b [3]float64) float64 {
	g := math.Acos(clampUnit(patch.DotV(a, b)))
	th := math.Atan2(1-math.Cos(g), math.Sin(g)) // bisector polar angle
	m := 0.1 * th
	if m > 0.03 {
		m = 0.03
	}
	if m < 0.005 {
		m = 0.005
	}
	return m
}

// planJunctions computes the blended plan for every junction node. It runs
// the blend-width feasibility ladder: the requested BlendRadius first, then
// halved up to BlendLadderDepth times, returning the first (largest) width at
// which every junction and terminal rim is feasible, together with the
// field actually used. If no rung is fully feasible, StrictBlend reports
// every infeasible node of the requested width in one BlendError; otherwise
// the rung with the fewest infeasible nodes wins and those nodes fall back
// to capsule caps.
func planJunctions(n *Network, cache *segGeomCache, tp TubeParams) (map[int]*junctionPlan, *Field, float64, error) {
	type attempt struct {
		plans map[int]*junctionPlan
		f     *Field
		br    float64
		bad   map[int]string
	}
	base := tp.BlendRadius
	var first, best *attempt
	for k := 0; k <= BlendLadderDepth; k++ {
		br := base * math.Pow(0.5, float64(k))
		f := NewField(n, br)
		plans, bad := planAllNodes(n, cache, f, tp)
		at := &attempt{plans: plans, f: f, br: br, bad: bad}
		if first == nil {
			first = at
		}
		if len(bad) == 0 {
			finalizeJoins(n, cache, plans)
			return plans, f, br, nil
		}
		if best == nil || len(bad) < len(best.bad) {
			best = at
		}
	}
	if tp.StrictBlend {
		be := &BlendError{BlendRadius: base}
		nodes := make([]int, 0, len(first.bad))
		for node := range first.bad {
			nodes = append(nodes, node)
		}
		sort.Ints(nodes)
		for _, node := range nodes {
			be.Nodes = append(be.Nodes, NodeBlendIssue{Node: node, Reason: first.bad[node]})
		}
		return nil, nil, 0, be
	}
	for node := range best.bad {
		if p := best.plans[node]; p != nil {
			p.blended = false
			p.ends = nil
		}
	}
	finalizeJoins(n, cache, best.plans)
	return best.plans, best.f, best.br, nil
}

// planAllNodes plans every junction at one blend width and returns the
// per-node failure reasons (empty map = fully feasible). Besides per-node
// collar feasibility it checks the two cross-cutting constraints of a
// width: blended collars on a shared segment must stay one blend width
// apart in arc length, and terminal cap rims must sit outside every other
// tube's blend band (the flat disk and its parabolic inflow profile assume
// the exact circular tube there).
func planAllNodes(n *Network, cache *segGeomCache, f *Field, tp TubeParams) (map[int]*junctionPlan, map[int]string) {
	deg := n.Degree()
	inc := n.Incident()
	plans := map[int]*junctionPlan{}
	bad := map[int]string{}
	for node := range n.Nodes {
		if deg[node] < 2 {
			continue
		}
		plan, reason := planNodeCollars(n, cache, f, deg, node, inc[node])
		if reason != "" {
			bad[node] = reason
			plan = &junctionPlan{node: node, blended: false}
		}
		plans[node] = plan
	}
	// Collar disjointness, in arc length: the straight barrel between two
	// blended collars must be at least one blend width long, so the collars'
	// clearance zones cannot interact and the handover bands stay disjoint.
	for si := range n.Segs {
		s := n.Segs[si]
		ea := endOf(plans[s.A], si, 0)
		eb := endOf(plans[s.B], si, 1)
		if ea == nil || eb == nil {
			continue
		}
		L := cache.curves[si].Length()
		gap := L - ea.collar.ellMax - eb.collar.ellMax
		if gap < f.Kappa() {
			reason := fmt.Sprintf("segment %d too short for the blended collars of junctions %d and %d (gap %.3g < blend width %.3g)", si, s.A, s.B, gap, f.Kappa())
			bad[s.A] = reason
			bad[s.B] = reason
			plans[s.A].blended = false
			plans[s.A].ends = nil
			plans[s.B].blended = false
			plans[s.B].ends = nil
		}
	}
	// Terminal rim clearance: if another tube's blend band reaches a
	// terminal cap rim, the wall there is no longer the exact tube the flat
	// cap closes. Charge the violation to the junction at the segment's far
	// end — shrinking the ladder (or falling that junction back to capsules,
	// which switches SDF to the sharp union) restores consistency.
	for si := range n.Segs {
		s := n.Segs[si]
		for end := 0; end < 2; end++ {
			node, far := s.A, s.B
			if end == 1 {
				node, far = s.B, s.A
			}
			if deg[node] != 1 || deg[far] < 2 {
				continue
			}
			cu, sw := cache.curves[si], cache.sweeps[si]
			t := float64(end)
			ctr := cu.Point(t)
			_, n1, n2 := sw.Frame(t)
			const m = 64
			slack := 0.5 * 2 * math.Pi * s.Radius / m
			for k := 0; k < m; k++ {
				phi := 2 * math.Pi * float64(k) / m
				x := circlePoint(ctr, n1, n2, s.Radius, phi)
				if f.OtherWithin(x, si, collarClearFactor*f.Kappa()+slack) {
					reason := fmt.Sprintf("terminal cap rim at node %d sits inside the blend band of another tube (blend width %.3g)", node, f.Kappa())
					if _, taken := bad[far]; !taken {
						bad[far] = reason
					}
					break
				}
			}
		}
	}
	return plans, bad
}

// endOf returns the junction end of segment si at the given end index, or
// nil if the plan is absent or not blended there.
func endOf(p *junctionPlan, si, end int) *junctionEnd {
	if p == nil || !p.blended {
		return nil
	}
	for i := range p.ends {
		if p.ends[i].seg == si && p.ends[i].end == end {
			return &p.ends[i]
		}
	}
	return nil
}

// finalizeJoins picks each blended end's handover station tJoin: the collar
// curve's deepest azimuth plus a pad, splitting the remaining straight-run
// arc so two blended ends of one segment never cross.
func finalizeJoins(n *Network, cache *segGeomCache, plans map[int]*junctionPlan) {
	for si := range n.Segs {
		s := n.Segs[si]
		cu := cache.curves[si]
		L := cu.Length()
		r := s.Radius
		ea := endOf(plans[s.A], si, 0)
		eb := endOf(plans[s.B], si, 1)
		var aMax, bMax float64
		if ea != nil {
			aMax = ea.collar.ellMax
		}
		if eb != nil {
			bMax = eb.collar.ellMax
		}
		gap := L - aMax - bMax
		pad := math.Min(0.35*r, 0.45*gap)
		if ea != nil {
			ea.tJoin = tAtArc(cu, 0, aMax+pad)
		}
		if eb != nil {
			eb.tJoin = tAtArc(cu, 1, bMax+pad)
		}
	}
}

func circlePoint(ctr, n1, n2 [3]float64, r, phi float64) [3]float64 {
	c, s := math.Cos(phi), math.Sin(phi)
	return [3]float64{
		ctr[0] + r*(c*n1[0]+s*n2[0]),
		ctr[1] + r*(c*n1[1]+s*n2[1]),
		ctr[2] + r*(c*n1[2]+s*n2[2]),
	}
}

// planNodeCollars finds the anisotropic collars and frames for all
// incidences at one node. A non-empty reason means the node has no feasible
// blend at this width and explains why (opening angle vs. segment length).
func planNodeCollars(n *Network, cache *segGeomCache, f *Field, deg []int, node int, incSegs []int) (*junctionPlan, string) {
	P := n.Nodes[node].Pos
	plan := &junctionPlan{node: node, blended: true}

	// Axes pointing from the node into each incident segment.
	type incidence struct {
		seg, end int
		axis     [3]float64
	}
	var incs []incidence
	for _, si := range incSegs {
		s := n.Segs[si]
		cu := cache.curves[si]
		if s.A == node {
			incs = append(incs, incidence{si, 0, cu.UnitTangent(0)})
		}
		if s.B == node {
			t := cu.UnitTangent(1)
			incs = append(incs, incidence{si, 1, [3]float64{-t[0], -t[1], -t[2]}})
		}
	}

	for ii, in := range incs {
		si := in.seg
		s := n.Segs[si]
		cu, sw := cache.curves[si], cache.sweeps[si]
		L := cu.Length()
		r := s.Radius
		otherNode := s.B
		if in.end == 1 {
			otherNode = s.A
		}
		// Collar budget along this segment: nearly the whole segment toward
		// a terminal (the handover band may run right up to a thin straight
		// sliver before the cap rim; terminal rim clearance is checked
		// separately), and all but a far-collar floor toward a junction
		// (disjointness of the two collars is checked a posteriori in arc
		// length, replacing the old pessimistic half-segment reservation).
		ellBudget := L - 0.1*r
		if deg[otherNode] > 1 {
			ellBudget = L - 1.3*r
		}
		ellFloor := 1.05 * r
		if ellBudget <= ellFloor {
			return nil, fmt.Sprintf("segment %d too short for any blend collar (budget %.3g <= floor %.3g)", si, ellBudget, ellFloor)
		}
		margins := make([]float64, len(incs))
		for m := range incs {
			if m != ii {
				margins[m] = voronoiMargin(in.axis, incs[m].axis)
			}
		}
		// feasible: the rim point at (ell, phi) clears every other tube by
		// clearFactor*Kappa (+slack), and its pullback stays marginScale of
		// the margin inside this axis's Voronoi cell.
		feasible := func(ell, phi, marginScale, slack float64) bool {
			t := tAtArc(cu, in.end, ell)
			ctr := cu.Point(t)
			_, n1, n2 := sw.Frame(t)
			x := circlePoint(ctr, n1, n2, r, phi)
			if f.OtherWithin(x, si, collarClearFactor*f.Kappa()+slack) {
				return false
			}
			w := patch.Normalize([3]float64{x[0] - P[0], x[1] - P[1], x[2] - P[2]})
			thSelf := math.Acos(clampUnit(patch.DotV(w, in.axis)))
			for m, om := range incs {
				if m == ii {
					continue
				}
				thOther := math.Acos(clampUnit(patch.DotV(w, om.axis)))
				if thSelf > thOther-marginScale*margins[m] {
					return false
				}
			}
			return true
		}
		samples := make([]float64, collarAzimuths)
		for k := range samples {
			phi := 2 * math.Pi * float64(k) / collarAzimuths
			ell, ok := minFeasibleArc(feasible, phi, ellFloor, ellBudget, r)
			if !ok {
				// Classify for diagnostics: would a deeper station help?
				if _, deep := minFeasibleArc(feasible, phi, ellFloor, 3*L, r); deep {
					return nil, fmt.Sprintf("segment %d too short for its blend collar (needs arc beyond budget %.3g)", si, ellBudget)
				}
				return nil, fmt.Sprintf("opening angle too tight on segment %d (no rim clearance within 3 segment lengths)", si)
			}
			samples[k] = ell
		}
		c := fitCollarCurve(samples, collarHarmonics, 0.02*r)
		// Dense validation of the smoothed curve, with azimuth-sampling
		// slack derived from the curve's own Lipschitz bound; a failed pass
		// lifts the whole curve deeper and retries within the budget.
		validated := false
		for try := 0; try < 4 && c.ellMax <= ellBudget; try++ {
			if validateCollar(c, feasible, ellFloor) {
				validated = true
				break
			}
			c.lift(0.1 * r)
		}
		if !validated {
			return nil, fmt.Sprintf("segment %d: no smooth collar curve within budget %.3g (clearance frontier too tight)", si, ellBudget)
		}
		end := junctionEnd{seg: si, end: in.end, axis: in.axis, collar: c}
		// Frame normal to the axis, seeded from the sweep frame at the
		// collar's mean station.
		tMid := tAtArc(cu, in.end, c.a0)
		_, fn1, fn2 := sw.Frame(tMid)
		end.e1 = patch.Normalize(orthoTo(fn1, in.axis))
		e2 := orthoTo(fn2, in.axis)
		d := patch.DotV(e2, end.e1)
		end.e2 = patch.Normalize([3]float64{e2[0] - d*end.e1[0], e2[1] - d*end.e1[1], e2[2] - d*end.e1[2]})
		inEnd := in.end
		end.tRim = func(phi float64) float64 {
			return tAtArc(cu, inEnd, c.arc(phi))
		}
		end.rim = func(phi float64) [3]float64 {
			t := end.tRim(phi)
			ctr := cu.Point(t)
			_, n1, n2 := sw.Frame(t)
			return circlePoint(ctr, n1, n2, r, phi)
		}
		plan.ends = append(plan.ends, end)
	}
	return plan, ""
}

// minFeasibleArc finds the minimal feasible collar arc at one azimuth:
// coarse march from the floor, then bisection of the first feasible
// bracket. Feasibility is rechecked at the bracket's feasible end, so a
// non-monotone frontier still yields a feasible (if not globally minimal)
// station.
func minFeasibleArc(feasible func(ell, phi, marginScale, slack float64) bool, phi, floor, budget, r float64) (float64, bool) {
	if feasible(floor, phi, 1, 0) {
		return floor, true
	}
	step := 0.2 * r
	lo, hi := floor, floor
	found := false
	for hi < budget {
		hi = math.Min(hi+step, budget)
		if feasible(hi, phi, 1, 0) {
			found = true
			break
		}
		lo = hi
	}
	if !found {
		return 0, false
	}
	for it := 0; it < 40 && hi-lo > 1e-4*r; it++ {
		mid := 0.5 * (lo + hi)
		if feasible(mid, phi, 1, 0) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// validateCollar checks the smoothed curve densely: every azimuth of a fine
// grid must stay feasible with a slack covering the inter-sample motion of
// the rim curve (circumferential plus the curve's own axial Lipschitz
// bound), at a slightly relaxed Voronoi margin (the 20% margin reserve
// absorbs inter-sample angular drift).
func validateCollar(c *collarCurve, feasible func(ell, phi, marginScale, slack float64) bool, floor float64) bool {
	lip := c.lipschitz()
	// Per-azimuth rim speed: r in the circumferential direction (r bounded
	// by floor/1.05 from below is irrelevant here — use the curve's own
	// scale via floor) plus lip axially; 0.6 adds a safety factor over the
	// half-spacing bound.
	slack := 0.6 * (2 * math.Pi / collarValidate) * math.Hypot(floor/1.05, lip)
	for k := 0; k < collarValidate; k++ {
		phi := 2 * math.Pi * float64(k) / collarValidate
		ell := c.arc(phi)
		if ell < 0.95*floor {
			return false
		}
		if !feasible(ell, phi, 0.8, slack) {
			return false
		}
	}
	return true
}

func orthoTo(v, a [3]float64) [3]float64 {
	d := patch.DotV(v, a)
	return [3]float64{v[0] - d*a[0], v[1] - d*a[1], v[2] - d*a[2]}
}

func clampUnit(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < -1 {
		return -1
	}
	return x
}

// cellBoundary returns the polar angle (from end.axis) of the spherical
// Voronoi cell boundary at azimuth psi, i.e. the bisector distance to the
// nearest competing axis, together with the index of that competitor.
func cellBoundary(end *junctionEnd, axes [][3]float64, self int, psi float64) (float64, int) {
	u := [3]float64{
		math.Cos(psi)*end.e1[0] + math.Sin(psi)*end.e2[0],
		math.Cos(psi)*end.e1[1] + math.Sin(psi)*end.e2[1],
		math.Cos(psi)*end.e1[2] + math.Sin(psi)*end.e2[2],
	}
	beta, who := math.Pi, -1
	for m, am := range axes {
		if m == self {
			continue
		}
		c := patch.DotV(end.axis, am)
		sv := patch.DotV(u, am)
		th := math.Atan2(1-c, sv)
		if th < beta {
			beta, who = th, m
		}
	}
	return beta, who
}

// sectorBreakpoints returns the azimuths at which the Voronoi cell boundary
// switches competitor (patch boundaries are placed there so each hull patch
// is a smooth map).
func sectorBreakpoints(end *junctionEnd, axes [][3]float64, self int) []float64 {
	const scan = 1440
	var brk []float64
	_, prev := cellBoundary(end, axes, self, 0)
	for k := 1; k <= scan; k++ {
		psi := 2 * math.Pi * float64(k) / scan
		_, who := cellBoundary(end, axes, self, psi)
		if who != prev {
			lo := 2 * math.Pi * float64(k-1) / scan
			hi := psi
			left := prev
			for it := 0; it < 40; it++ {
				mid := (lo + hi) / 2
				if _, w := cellBoundary(end, axes, self, mid); w == left {
					lo = mid
				} else {
					hi = mid
				}
			}
			brk = append(brk, (lo+hi)/2)
			prev = who
		}
	}
	sort.Float64s(brk)
	return brk
}

// sectorSpans builds the phi ranges of one sector's patches: boundaries at
// every competitor switch, subdivided so no span exceeds 2*pi/nv.
func sectorSpans(brk []float64, nv int) [][2]float64 {
	maxSpan := 2 * math.Pi / float64(nv)
	var edges []float64
	if len(brk) == 0 {
		for k := 0; k <= nv; k++ {
			edges = append(edges, 2*math.Pi*float64(k)/float64(nv))
		}
	} else {
		for i := range brk {
			a := brk[i]
			b := brk[(i+1)%len(brk)]
			if i == len(brk)-1 {
				b += 2 * math.Pi
			}
			span := b - a
			parts := int(math.Ceil(span / maxSpan))
			if parts < 1 {
				parts = 1
			}
			for k := 0; k < parts; k++ {
				edges = append(edges, a+span*float64(k)/float64(parts))
			}
		}
		edges = append(edges, brk[0]+2*math.Pi)
	}
	var spans [][2]float64
	for i := 0; i+1 < len(edges); i++ {
		if edges[i+1]-edges[i] > 1e-9 {
			spans = append(spans, [2]float64{edges[i], edges[i+1]})
		}
	}
	return spans
}

// buildJunctionHull constructs the hull patches of one blended junction,
// returning for each patch the parameter edge lying on its collar rim (the
// hook the edge-graded split uses). A ray-cast failure (blend surface not
// star-shaped about the node, e.g. strongly curved incident centerlines) is
// reported as an error so the caller can fall back to capsule caps at this
// node.
func buildJunctionHull(tp TubeParams, f *Field, plan *junctionPlan, P [3]float64) ([]*patch.Patch, []RootMeta, []patch.Edge, error) {
	axes := make([][3]float64, len(plan.ends))
	segs := make([]int, len(plan.ends))
	for i := range plan.ends {
		axes[i] = plan.ends[i].axis
		segs[i] = plan.ends[i].seg
	}
	// Ray-cast bounds from the deepest rim station over all azimuths (the
	// anisotropic rim can reach much farther than its shallow side).
	var maxRho float64
	for i := range plan.ends {
		e := &plan.ends[i]
		for k := 0; k < 32; k++ {
			d := dist(e.rim(2*math.Pi*float64(k)/32), P)
			maxRho = math.Max(maxRho, 3*d+f.Kappa())
		}
	}
	step := 0.25 * f.Kappa()
	var roots []*patch.Patch
	var meta []RootMeta
	var rims []patch.Edge
	var castErr error
	for i := range plan.ends {
		end := &plan.ends[i]
		spans := sectorSpans(sectorBreakpoints(end, axes, i), tubeNV)
		for _, sp := range spans {
			sp := sp
			mapf := func(u, v float64) [3]float64 {
				phi := sp[0] + (sp[1]-sp[0])*(u+1)/2
				s := (v + 1) / 2
				xr := end.rim(phi)
				if s <= 0 {
					return xr
				}
				w := patch.Normalize([3]float64{xr[0] - P[0], xr[1] - P[1], xr[2] - P[2]})
				thIn := math.Acos(clampUnit(patch.DotV(w, end.axis)))
				psi := math.Atan2(patch.DotV(w, end.e2), patch.DotV(w, end.e1))
				beta, _ := cellBoundary(end, axes, i, psi)
				th := thIn + s*(beta-thIn)
				cs, sn := math.Cos(psi), math.Sin(psi)
				dir := [3]float64{
					math.Cos(th)*end.axis[0] + math.Sin(th)*(cs*end.e1[0]+sn*end.e2[0]),
					math.Cos(th)*end.axis[1] + math.Sin(th)*(cs*end.e1[1]+sn*end.e2[1]),
					math.Cos(th)*end.axis[2] + math.Sin(th)*(cs*end.e1[2]+sn*end.e2[2]),
				}
				x, ok := f.Raycast(P, dir, segs, step, maxRho)
				if !ok && castErr == nil {
					castErr = fmt.Errorf("network: junction %d: hull ray-cast failed (blend surface not star-shaped here); a build without StrictBlend falls back to capsule caps at this node", plan.node)
				}
				return x
			}
			ref := func(x [3]float64) [3]float64 {
				return [3]float64{x[0] - P[0], x[1] - P[1], x[2] - P[2]}
			}
			// The rim (s = 0) is the v = −1 edge of mapf; orientation may
			// transpose (u, v), moving it to u = −1.
			p, transposed := patch.FromFuncOriented(tp.Order, mapf, ref)
			rim := patch.EdgeVLo
			if transposed {
				rim = patch.EdgeULo
			}
			roots = append(roots, p)
			rims = append(rims, rim)
			meta = append(meta, RootMeta{Kind: RootJunctionHull, Seg: end.seg, Node: plan.node})
			if castErr != nil {
				return nil, nil, nil, castErr
			}
		}
	}
	return roots, meta, rims, nil
}
