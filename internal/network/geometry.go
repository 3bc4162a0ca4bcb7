package network

import (
	"math"
	"sort"

	"rbcflow/internal/bie"
	"rbcflow/internal/forest"
	"rbcflow/internal/patch"
	"rbcflow/internal/quadrature"
	"rbcflow/internal/vessel"
)

// sweep carries a rotation-minimizing frame (RMF) along a centerline,
// computed by the double-reflection method on a fixed station grid. This
// generalizes the trefoil's fixed-up-vector frame to arbitrary segment
// directions (where a fixed reference degenerates).
type sweep struct {
	cu  *Curve
	n1s [][3]float64 // RMF normal at each station
	m   int
}

const sweepStations = 128

func newSweep(cu *Curve) *sweep {
	m := sweepStations
	s := &sweep{cu: cu, m: m, n1s: make([][3]float64, m)}
	t0 := cu.UnitTangent(0)
	// Seed normal: any unit vector orthogonal to the initial tangent.
	seed := [3]float64{0, 0, 1}
	if math.Abs(patch.DotV(seed, t0)) > 0.9 {
		seed = [3]float64{0, 1, 0}
	}
	d := patch.DotV(seed, t0)
	s.n1s[0] = patch.Normalize([3]float64{seed[0] - d*t0[0], seed[1] - d*t0[1], seed[2] - d*t0[2]})
	for i := 0; i+1 < m; i++ {
		ti := float64(i) / float64(m-1)
		tj := float64(i+1) / float64(m-1)
		xi, xj := cu.Point(ti), cu.Point(tj)
		tani, tanj := cu.UnitTangent(ti), cu.UnitTangent(tj)
		// Double reflection (Wang et al. 2008): reflect across the chord
		// bisector plane, then across the tangent bisector plane.
		v1 := [3]float64{xj[0] - xi[0], xj[1] - xi[1], xj[2] - xi[2]}
		c1 := patch.DotV(v1, v1)
		rL, tL := s.n1s[i], tani
		if c1 > 0 {
			k := 2 * patch.DotV(v1, rL) / c1
			rL = [3]float64{rL[0] - k*v1[0], rL[1] - k*v1[1], rL[2] - k*v1[2]}
			k = 2 * patch.DotV(v1, tL) / c1
			tL = [3]float64{tL[0] - k*v1[0], tL[1] - k*v1[1], tL[2] - k*v1[2]}
		}
		v2 := [3]float64{tanj[0] - tL[0], tanj[1] - tL[1], tanj[2] - tL[2]}
		c2 := patch.DotV(v2, v2)
		if c2 > 0 {
			k := 2 * patch.DotV(v2, rL) / c2
			rL = [3]float64{rL[0] - k*v2[0], rL[1] - k*v2[1], rL[2] - k*v2[2]}
		}
		s.n1s[i+1] = patch.Normalize(rL)
	}
	return s
}

// Frame returns the orthonormal frame (tan, n1, n2) at t, with n2 = n1×tan
// so that an (axis, angle) sweep parameterization has du×dv pointing out of
// the tube (away from the centerline), matching the fluid-inside convention.
func (s *sweep) Frame(t float64) (tan, n1, n2 [3]float64) {
	tan = s.cu.UnitTangent(t)
	x := t * float64(s.m-1)
	i := int(x)
	if i >= s.m-1 {
		i = s.m - 2
	}
	fr := x - float64(i)
	a, b := s.n1s[i], s.n1s[i+1]
	n1 = [3]float64{a[0] + fr*(b[0]-a[0]), a[1] + fr*(b[1]-a[1]), a[2] + fr*(b[2]-a[2])}
	d := patch.DotV(n1, tan)
	n1 = patch.Normalize([3]float64{n1[0] - d*tan[0], n1[1] - d*tan[1], n1[2] - d*tan[2]})
	n2 = patch.Cross(n1, tan)
	return tan, n1, n2
}

// RootKind labels what a root patch represents.
type RootKind int

const (
	// RootWall is a no-slip tube barrel patch.
	RootWall RootKind = iota
	// RootTerminalCap is a flat inlet/outlet disk at a degree-1 node — the
	// patches on which the parabolic velocity boundary condition lives.
	RootTerminalCap
	// RootJunctionHull is a patch of a smoothly blended junction surface:
	// part of the single wall that transitions from each incident segment's
	// circular cross-section into the shared junction hull. Seg is the
	// incident segment owning the sector, Node the junction node.
	RootJunctionHull
)

// RootMeta describes one root patch of a network geometry.
type RootMeta struct {
	Kind RootKind
	Seg  int // owning segment
	Node int // node index for terminal caps and junction hulls, -1 for wall patches
}

// Cap records one terminal (inlet/outlet) disk.
type Cap struct {
	Node, Seg int
	Center    [3]float64
	AxisIn    [3]float64 // unit axis pointing into the network
	Radius    float64
}

// TubeParams configures the swept-tube surface generator.
type TubeParams struct {
	// Order is the polynomial patch order (default 8).
	Order int
	// AxialLen is the target axial patch length in units of the tube radius
	// (default 2.5); the patch count along a segment is ⌈L/(AxialLen·r)⌉.
	AxialLen float64
	// BlendRadius is the smooth-min blend width of the junction surfaces in
	// units of the smallest segment radius (0 = DefaultBlendRadius).
	BlendRadius float64

	// gradeLevels is the number of panel levels of the edge-graded rim
	// discretization (0 = DefaultGradeLevels): terminal caps become
	// center-plus-annulus stacks graded toward the rim, the barrel panels
	// bordering a terminal rim or a blended-junction collar are split
	// toward the seam, and junction hull sectors are split toward their
	// collar rims. Only the grading-ladder tests set it.
	gradeLevels int
}

// tubeNV is the number of patches around a tube's circumference.
const tubeNV = 4

// DefaultGradeLevels is the rim grading every network wall is built with:
// enough for GMRES to reach 1e-6 relative residual on every capped geometry
// (see internal/bie/adaptive.go for the quadrature side of the scheme).
const DefaultGradeLevels = 2

// BlendLadderDepth is the depth of the blend-width feasibility ladder: the
// planner halves the blend width up to this many times (down to
// BlendRadius/2³) before BuildGeometry gives up with a BlendError; the
// largest fully feasible width wins and Geometry.EffectiveBlend records it.
const BlendLadderDepth = 3

func (p *TubeParams) defaults() {
	if p.Order == 0 {
		p.Order = 8
	}
	if p.AxialLen == 0 {
		p.AxialLen = 2.5
	}
	if p.BlendRadius == 0 {
		p.BlendRadius = DefaultBlendRadius
	}
	if p.gradeLevels == 0 {
		p.gradeLevels = DefaultGradeLevels
	}
}

// Geometry is the surface realization of a network: root patches plus
// per-root metadata and the terminal caps, ready for the forest/bie
// pipeline.
//
// Each junction is a single C1 wall: the zero level set of the
// compactly-blended union of the incident tubes (see Field), with each
// incident barrel trimmed at a collar and the junction covered by ray-cast
// hull patches. Network.Validate requires a connected graph, so the wall is
// one watertight open-ended channel whose only patches with nonzero
// velocity flux are the terminal caps: the zero-flux solvability condition
// of the interior Dirichlet problem is the net flux over the whole surface
// (bie.Surface.NetFlux).
type Geometry struct {
	Net   *Network
	Roots []*patch.Patch
	Meta  []RootMeta
	Caps  []Cap

	// Tube holds the fully-defaulted TubeParams the geometry was built
	// with, so callers (e.g. volume ladders) can rebuild consistently.
	Tube TubeParams
	// EffectiveBlend is the blend radius actually used, in units of the
	// smallest segment radius: TubeParams.BlendRadius, possibly halved up
	// to BlendLadderDepth times by the planner's feasibility ladder so that
	// every junction blends.
	EffectiveBlend float64

	field       *Field
	analyticVol float64
}

// BuildGeometry sweeps every segment into tube patches with RMF frames and
// closes the ends: flat disks at terminals and a smoothly blended hull at
// every junction. A junction that no rung of the blend-width ladder fits is
// a *BlendError naming each such node.
func BuildGeometry(n *Network, tp TubeParams) (*Geometry, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	tp.defaults()
	deg := n.Degree()
	cache := newSegGeomCache(n)
	plans, field, br, err := planJunctions(n, cache, tp)
	if err != nil {
		return nil, err
	}
	g := &Geometry{Net: n, Tube: tp, EffectiveBlend: br, field: field}
	var hullRoots []*patch.Patch
	var hullMeta []RootMeta
	nodes := make([]int, 0, len(plans))
	for node := range plans {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	castFailed := map[int]string{}
	for _, node := range nodes {
		roots, meta, rims, reason := buildJunctionHull(tp, g.field, plans[node], n.Nodes[node].Pos)
		if reason != "" {
			castFailed[node] = reason
			continue
		}
		if lv := tp.gradeLevels; lv >= 1 {
			// Collar-seam grading: split each hull sector toward its
			// rim edge (exact polynomial resampling, so the shared rim
			// circles and bisector curves are preserved).
			grades := make([]forest.EdgeGrade, len(roots))
			for i := range roots {
				grades[i] = forest.EdgeGrade{Root: i, Edge: rims[i], Levels: lv}
			}
			split, origin := forest.SplitRootsGraded(roots, grades)
			splitMeta := make([]RootMeta, len(split))
			for i, o := range origin {
				splitMeta[i] = meta[o]
			}
			roots, meta = split, splitMeta
		}
		hullRoots = append(hullRoots, roots...)
		hullMeta = append(hullMeta, meta...)
	}
	if len(castFailed) > 0 {
		return nil, newBlendError(tp.BlendRadius, castFailed)
	}
	for si, seg := range n.Segs {
		cu, sw := cache.curves[si], cache.sweeps[si]
		r := seg.Radius
		L := cu.Length()
		pa, pb := plans[seg.A], plans[seg.B]
		// Barrel parameter range: the straight barrel runs between the
		// blended ends' handover stations; the anisotropic stretch from the
		// collar rim curve to the handover is covered by warped graded
		// bands that share the exact rim curve with the junction hull.
		ea := endOf(pa, si, 0)
		eb := endOf(pb, si, 1)
		tLo, tHi := 0.0, 1.0
		if ea != nil {
			tLo = ea.tJoin
			g.addWarpedCollar(tp, cu, sw, si, r, ea)
		}
		if eb != nil {
			tHi = eb.tJoin
			g.addWarpedCollar(tp, cu, sw, si, r, eb)
		}
		nu := int(math.Ceil(arcBetween(cu, tLo, tHi) / (tp.AxialLen * r)))
		if nu < 1 {
			nu = 1
		}
		g.analyticVol += math.Pi * r * r * L
		// Rim-graded axial breakpoints: a barrel end that meets a terminal
		// cap borders a rim seam, and its end panel is replaced by a
		// dyadically graded stack sharing the rim circle. Blended ends need
		// no grading here — their warped bands carry the rim grading, and
		// the handover at tJoin is a smooth tube continuation.
		rimLo := ea == nil && deg[seg.A] == 1
		rimHi := eb == nil && deg[seg.B] == 1
		tBks := quadrature.GradedSpanBreakpoints(tLo, tHi, nu, rimLo, rimHi, tp.gradeLevels)
		// Barrel.
		for a := 0; a+1 < len(tBks); a++ {
			for b := 0; b < tubeNV; b++ {
				t0 := tBks[a]
				t1 := tBks[a+1]
				p0 := 2 * math.Pi * float64(b) / float64(tubeNV)
				p1 := 2 * math.Pi * float64(b+1) / float64(tubeNV)
				g.addRoot(patch.FromFunc(tp.Order, func(u, v float64) [3]float64 {
					t := t0 + (t1-t0)*(u+1)/2
					ph := p0 + (p1-p0)*(v+1)/2
					c := cu.Point(t)
					_, n1, n2 := sw.Frame(t)
					return [3]float64{
						c[0] + r*(math.Cos(ph)*n1[0]+math.Sin(ph)*n2[0]),
						c[1] + r*(math.Cos(ph)*n1[1]+math.Sin(ph)*n2[1]),
						c[2] + r*(math.Cos(ph)*n1[2]+math.Sin(ph)*n2[2]),
					}
				}), RootMeta{Kind: RootWall, Seg: si, Node: -1})
			}
		}
		// Terminal ends get flat caps. Junction ends stay open; the hull
		// patches added below complete them.
		for end := 0; end < 2; end++ {
			t := float64(end) // 0 or 1
			node := seg.A
			if end == 1 {
				node = seg.B
			}
			if deg[node] != 1 {
				continue
			}
			ctr := cu.Point(t)
			tan, n1, n2 := sw.Frame(t)
			aout := tan
			if end == 0 {
				aout = [3]float64{-tan[0], -tan[1], -tan[2]}
			}
			g.addTerminalCap(tp, si, node, ctr, aout, n1, n2, r)
		}
	}
	// Junction hulls (already built above, in node order).
	for i := range hullRoots {
		g.addRoot(hullRoots[i], hullMeta[i])
	}
	return g, nil
}

func (g *Geometry) addRoot(p *patch.Patch, m RootMeta) {
	g.Roots = append(g.Roots, p)
	g.Meta = append(g.Meta, m)
}

// addWarpedCollar emits one blended end's warped graded bands: per azimuth,
// the tube surface between the anisotropic collar rim curve (s = 0, the
// exact curve the junction hull patches share) and the straight handover
// station tJoin (s = 1, an exact circle shared with the straight barrel).
// The dyadic s-grading toward the rim replaces the straight-barrel rim
// grading of the former planar collars.
func (g *Geometry) addWarpedCollar(tp TubeParams, cu *Curve, sw *sweep, si int, r float64, e *junctionEnd) {
	surf := func(s, phi float64) [3]float64 {
		tr := e.tRim(phi)
		t := tr + s*(e.tJoin-tr)
		ctr := cu.Point(t)
		_, n1, n2 := sw.Frame(t)
		return circlePoint(ctr, n1, n2, r, phi)
	}
	// At the A end s advances along +t, so u→s, v→phi is outward exactly
	// like the straight barrel's u→t, v→phi; at the B end s runs against
	// +t and the transpose keeps du×dv outward.
	swap := e.end == 1
	meta := RootMeta{Kind: RootWall, Seg: si, Node: -1}
	for _, p := range vessel.GradedWarpBands(tp.Order, tubeNV, tp.gradeLevels, swap, surf) {
		g.addRoot(p, meta)
	}
}

// addTerminalCap closes a terminal end with a flat disk — the edge-graded
// center-plus-annulus stack of vessel.GradedCapRoots — and records the Cap
// for boundary-condition synthesis. Every patch of the stack carries
// RootTerminalCap metadata, so Inflow treats the stack as one cap.
func (g *Geometry) addTerminalCap(tp TubeParams, seg, node int, ctr, aout, e1, e2 [3]float64, r float64) {
	meta := RootMeta{Kind: RootTerminalCap, Seg: seg, Node: node}
	for _, p := range vessel.GradedCapRoots(tp.Order, tubeNV, ctr, aout, e1, e2, r, tp.gradeLevels) {
		g.addRoot(p, meta)
	}
	g.Caps = append(g.Caps, Cap{
		Node: node, Seg: seg, Center: ctr,
		AxisIn: [3]float64{-aout[0], -aout[1], -aout[2]}, Radius: r,
	})
}

// AnalyticVolume returns the summed analytic tube volume Σ_s πr²L. It is
// only a reference value —
// collar trims, blend bulges and overlap balls make the true enclosed
// volume differ near junctions, so use NumericalVolume for a converged
// value with error bars.
func (g *Geometry) AnalyticVolume() float64 { return g.analyticVol }

// Field returns the blended implicit wall field the geometry was built
// against.
func (g *Geometry) Field() *Field { return g.field }

// SDF returns the signed distance bound to the wall: the blended field
// whose zero set is the built surface, negative inside the fluid and
// positive outside. Cell filling uses it to keep membranes clear of the
// wall, including near junctions.
func (g *Geometry) SDF() func(x [3]float64) float64 { return g.field.Eval }

// Surface refines the roots to the given level and discretizes with the
// boundary-integral parameters, feeding the standard forest/bie pipeline.
func (g *Geometry) Surface(level int, prm bie.Params) *bie.Surface {
	return bie.NewSurface(forest.NewUniform(g.Roots, level), prm)
}

// Inflow synthesizes the velocity boundary condition g on the surface's
// coarse nodes from a reduced-order flow solution: a parabolic (Poiseuille)
// profile on every terminal cap whose DISCRETE flux ∮ g·n dA matches the
// solved terminal flow exactly — pointing into the network at inlets, out
// at outlets — and no-slip (zero) on walls and junction patches. Each cap's
// profile is rescaled so its quadrature flux equals the target to machine
// precision, so the solvability condition of the interior Dirichlet
// problem holds discretely: the caps' targets sum to the Kirchhoff residual
// (~1e-15), making s.NetFlux(bc, nil) assertable against zero. s must have
// been built from this geometry.
func (g *Geometry) Inflow(s *bie.Surface, f *FlowSolution) []float64 {
	out := make([]float64, 3*len(s.Pts))
	capByNode := map[int]Cap{}
	for _, c := range g.Caps {
		capByNode[c.Node] = c
	}
	type capAcc struct {
		target float64 // wanted ∮ g·n dA (outward normal)
		actual float64
		ks     []int
	}
	accs := map[int]*capAcc{}
	for pid := range s.F.Patches {
		meta := g.Meta[s.F.RootOf[pid]]
		if meta.Kind != RootTerminalCap {
			continue
		}
		cp := capByNode[meta.Node]
		qin := f.TerminalInflow(g.Net, meta.Node)
		acc := accs[meta.Node]
		if acc == nil {
			acc = &capAcc{target: -qin}
			accs[meta.Node] = acc
		}
		vmax := 2 * qin / (math.Pi * cp.Radius * cp.Radius)
		for k := pid * s.NQ; k < (pid+1)*s.NQ; k++ {
			x := s.Pts[k]
			dx := [3]float64{x[0] - cp.Center[0], x[1] - cp.Center[1], x[2] - cp.Center[2]}
			ax := patch.DotV(dx, cp.AxisIn)
			rho2 := patch.DotV(dx, dx) - ax*ax
			prof := 1 - rho2/(cp.Radius*cp.Radius)
			if prof < 0 {
				prof = 0
			}
			for d := 0; d < 3; d++ {
				out[3*k+d] = vmax * prof * cp.AxisIn[d]
			}
			acc.actual += patch.DotV([3]float64{out[3*k], out[3*k+1], out[3*k+2]}, s.Nrm[k]) * s.W[k]
			acc.ks = append(acc.ks, k)
		}
	}
	// Rescale each cap so the discrete flux hits the target exactly.
	for _, acc := range accs {
		if acc.actual == 0 {
			continue
		}
		scale := acc.target / acc.actual
		for _, k := range acc.ks {
			out[3*k] *= scale
			out[3*k+1] *= scale
			out[3*k+2] *= scale
		}
	}
	return out
}

// ClosureDefect returns |∮ n dA| / area — exactly zero for a watertight
// closed surface, so the discrete value measures gaps and overlaps of the
// patch union (plus quadrature error).
func ClosureDefect(s *bie.Surface) float64 {
	var nx, ny, nz, area float64
	for k, nr := range s.Nrm {
		nx += nr[0] * s.W[k]
		ny += nr[1] * s.W[k]
		nz += nr[2] * s.W[k]
		area += s.W[k]
	}
	return math.Sqrt(nx*nx+ny*ny+nz*nz) / area
}

// NumericalVolume builds the surface at a ladder of patch orders and
// returns the divergence-theorem volume of the finest build together with
// a convergence-based error estimate (the difference between the last two
// rungs). It replaces AnalyticVolume as the volume of record for blended
// geometries, whose junction hulls have no closed form. orders nil means
// {tp.Order, tp.Order+2}.
func NumericalVolume(n *Network, tp TubeParams, orders []int) (vol, errEst float64, err error) {
	tp.defaults()
	if len(orders) == 0 {
		orders = []int{tp.Order, tp.Order + 2}
	}
	// Volume only reads the coarse quadrature, at a high order.
	prm := bie.Params{QuadNodes: 9, NearFactor: 0.5}
	var prev float64
	for i, o := range orders {
		tpi := tp
		tpi.Order = o
		g, e := BuildGeometry(n, tpi)
		if e != nil {
			return 0, 0, e
		}
		v := g.Surface(0, prm).EnclosedVolume()
		if i > 0 {
			errEst = math.Abs(v - prev)
		}
		prev, vol = v, v
	}
	return vol, errEst, nil
}
