package network

import (
	"fmt"
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
	// RootJunctionCap is a hemispherical end bulge at a junction node too
	// tight to blend (Geometry.FallbackNodes); the bulges of the segments
	// meeting there overlap and keep the union of capsules connected through
	// the junction.
	RootJunctionCap
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
	Node int // node index for caps, -1 for wall patches
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
	// StrictBlend makes BuildGeometry fail instead of falling back to
	// capsule caps at junction nodes too tight to blend (after the
	// blend-width ladder is exhausted); the error aggregates every
	// infeasible node with its reason (see BlendError).
	StrictBlend bool

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
// BlendRadius/2³) before giving up on blending a junction; the largest
// fully feasible width wins and Geometry.EffectiveBlend records it.
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
// hull patches. A fully blended connected network is one watertight
// open-ended channel whose only patches with nonzero velocity flux are the
// terminal caps, which restores the per-component zero-flux solvability
// condition of the interior Dirichlet problem. At a junction too tight to
// blend (FallbackNodes) the incident segments keep closed hemispherical
// ends whose bulges overlap the neighbours; the components that split off
// there violate that condition (see DESIGN.md).
type Geometry struct {
	Net   *Network
	Roots []*patch.Patch
	Meta  []RootMeta
	Caps  []Cap

	// Tube holds the fully-defaulted TubeParams the geometry was built
	// with, so callers (e.g. volume ladders) can rebuild consistently.
	Tube TubeParams
	// FallbackNodes lists junction nodes realized with capsule caps
	// because no feasible blend existed there (empty when fully blended).
	FallbackNodes []int
	// EffectiveBlend is the blend radius actually used, in units of the
	// smallest segment radius: TubeParams.BlendRadius, possibly halved up
	// to BlendLadderDepth times by the planner's feasibility ladder so that
	// every junction blends.
	EffectiveBlend float64

	field       *Field
	blendNodes  map[int]bool
	analyticVol float64
}

// BuildGeometry sweeps every segment into tube patches with RMF frames and
// closes the ends: flat disks at terminals, and at junctions a smoothly
// blended hull, or overlapping hemispheres where no blend is feasible.
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
	g := &Geometry{Net: n, Tube: tp, EffectiveBlend: br, field: field, blendNodes: map[int]bool{}}
	var hullRoots []*patch.Patch
	var hullMeta []RootMeta
	// Attempt every hull BEFORE emitting barrels: a node whose hull
	// ray-cast fails (surface not star-shaped there) is demoted to the
	// capsule fallback while its incident barrels can still be emitted
	// untrimmed below.
	nodes := make([]int, 0, len(plans))
	for node := range plans {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		p := plans[node]
		if !p.blended {
			g.FallbackNodes = append(g.FallbackNodes, node)
			continue
		}
		roots, meta, rims, err := buildJunctionHull(tp, g.field, p, n.Nodes[node].Pos)
		if err != nil {
			if tp.StrictBlend {
				return nil, err
			}
			p.blended = false
			g.FallbackNodes = append(g.FallbackNodes, node)
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
		g.blendNodes[node] = true
	}
	blendPlan := func(node int) *junctionPlan {
		if p := plans[node]; p != nil && p.blended {
			return p
		}
		return nil
	}
	for si, seg := range n.Segs {
		cu, sw := cache.curves[si], cache.sweeps[si]
		r := seg.Radius
		L := cu.Length()
		pa, pb := blendPlan(seg.A), blendPlan(seg.B)
		if L < 2*r && deg[seg.A] > 1 && deg[seg.B] > 1 && (pa == nil || pb == nil) {
			return nil, fmt.Errorf("network: segment %d too short (L=%g) for its radius %g between capsule junctions", si, L, r)
		}
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
		// End closures. Blended junction ends stay open; the hull patches
		// added below complete them.
		for end := 0; end < 2; end++ {
			t := float64(end) // 0 or 1
			node := seg.A
			if end == 1 {
				node = seg.B
			}
			if blendPlan(node) != nil {
				continue
			}
			ctr := cu.Point(t)
			tan, n1, n2 := sw.Frame(t)
			aout := tan
			if end == 0 {
				aout = [3]float64{-tan[0], -tan[1], -tan[2]}
			}
			if deg[node] == 1 {
				g.addTerminalCap(tp, si, node, ctr, aout, n1, n2, r)
			} else {
				g.addJunctionCap(tp.Order, si, node, ctr, aout, n1, n2, r)
				g.analyticVol += 2.0 / 3 * math.Pi * r * r * r
			}
		}
	}
	// Blended junction hulls (already built above, in node order).
	for i := range hullRoots {
		g.addRoot(hullRoots[i], hullMeta[i])
	}
	return g, nil
}

func (g *Geometry) addRoot(p *patch.Patch, m RootMeta) {
	g.Roots = append(g.Roots, p)
	g.Meta = append(g.Meta, m)
}

// orientedPatch builds the patch from f oriented so du×dv aligns with the
// reference outward direction (patch.FromFuncOriented, transpose flag
// dropped).
func orientedPatch(order int, f func(u, v float64) [3]float64, ref func(x [3]float64) [3]float64) *patch.Patch {
	p, _ := patch.FromFuncOriented(order, f, ref)
	return p
}

// orientedRoot is orientedPatch plus registration as a root.
func (g *Geometry) orientedRoot(order int, f func(u, v float64) [3]float64, ref func(x [3]float64) [3]float64, m RootMeta) {
	g.addRoot(orientedPatch(order, f, ref), m)
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
// RootTerminalCap metadata, so Inflow and the component bookkeeping treat
// the stack as one cap.
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

// addJunctionCap closes a junction end with a cubed-sphere hemisphere
// (1 pole face + 4 half side faces), rim-matched to the barrel end circle.
func (g *Geometry) addJunctionCap(order, seg, node int, ctr, aout, e1, e2 [3]float64, r float64) {
	world := func(x, y, z float64) [3]float64 {
		nrm := math.Sqrt(x*x + y*y + z*z)
		x, y, z = x/nrm, y/nrm, z/nrm
		return [3]float64{
			ctr[0] + r*(x*e1[0]+y*e2[0]+z*aout[0]),
			ctr[1] + r*(x*e1[1]+y*e2[1]+z*aout[1]),
			ctr[2] + r*(x*e1[2]+y*e2[2]+z*aout[2]),
		}
	}
	ref := func(x [3]float64) [3]float64 {
		return [3]float64{x[0] - ctr[0], x[1] - ctr[1], x[2] - ctr[2]}
	}
	meta := RootMeta{Kind: RootJunctionCap, Seg: seg, Node: node}
	// Pole face: cube face z = 1.
	g.orientedRoot(order, func(u, v float64) [3]float64 { return world(u, v, 1) }, ref, meta)
	// Side half-faces: cube faces x=±1, y=±1 restricted to z ∈ [0, 1].
	sides := [4]func(h, z float64) (float64, float64, float64){
		func(h, z float64) (float64, float64, float64) { return 1, h, z },
		func(h, z float64) (float64, float64, float64) { return -1, h, z },
		func(h, z float64) (float64, float64, float64) { return h, 1, z },
		func(h, z float64) (float64, float64, float64) { return h, -1, z },
	}
	for _, side := range sides {
		side := side
		g.orientedRoot(order, func(u, v float64) [3]float64 {
			x, y, z := side(u, (v+1)/2)
			return world(x, y, z)
		}, ref, meta)
	}
}

// AnalyticVolume returns the summed analytic tube volume Σ_s πr²L (plus
// hemispherical ends at fallback junctions). It is only a reference value —
// collar trims, blend bulges and overlap balls make the true enclosed
// volume differ near junctions, so use NumericalVolume for a converged
// value with error bars.
func (g *Geometry) AnalyticVolume() float64 { return g.analyticVol }

// Field returns the blended implicit wall field the geometry was built
// against.
func (g *Geometry) Field() *Field { return g.field }

// SDF returns the signed distance bound to the wall: negative inside the
// fluid, positive outside. For a fully blended geometry it is the blended
// field whose zero set is the built surface; for a geometry with capsule
// fallback nodes, whose real wall is the tighter capsule union there, it is
// the sharp union minimum, which certifies clearance from both surfaces.
// Cell seeding and filling use it to keep membranes clear of the wall,
// including near junctions.
func (g *Geometry) SDF() func(x [3]float64) float64 {
	if len(g.FallbackNodes) == 0 {
		return g.field.Eval
	}
	return g.field.EvalSharp
}

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
// precision, so the per-component solvability condition of the interior
// Dirichlet problem holds discretely: a fully blended connected network is
// one component whose caps' targets sum to the Kirchhoff residual (~1e-15),
// making ComponentFlux assertable against zero. Components split off at
// fallback junctions that carry terminal caps still have O(Q) net flux —
// the defect documented in DESIGN.md. s must have been built from this
// geometry.
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

// Components groups the root patches into connected wall components,
// ordered by their smallest segment index. A fully blended connected
// network is a single component; junction nodes on the fallback list do not
// merge their incident segments, so a segment between two of them is a
// closed capsule of its own.
func (g *Geometry) Components() [][]int {
	parent := make([]int, len(g.Net.Segs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	inc := g.Net.Incident()
	for node := range g.blendNodes {
		segs := inc[node]
		for _, si := range segs[1:] {
			parent[find(segs[0])] = find(si)
		}
	}
	groups := map[int][]int{}
	for ri, m := range g.Meta {
		root := find(m.Seg)
		groups[root] = append(groups[root], ri)
	}
	keys := make([]int, 0, len(groups))
	remap := map[int]int{}
	for si := range g.Net.Segs {
		root := find(si)
		if _, ok := remap[root]; !ok && groups[root] != nil {
			remap[root] = len(keys)
			keys = append(keys, root)
		}
	}
	out := make([][]int, len(keys))
	for i, root := range keys {
		out[i] = groups[root]
	}
	return out
}

// ComponentFlux returns the discrete net flux ∮ bc·n dA of a boundary
// condition over each wall component (ordered as Components). For a
// solvable interior Dirichlet problem every entry must vanish; a fully
// blended geometry achieves |flux| ~ machine precision times the inlet
// flow, while the terminal-carrying components split off at fallback
// junctions violate it by O(Q). s must have been built from this geometry.
func (g *Geometry) ComponentFlux(s *bie.Surface, bc []float64) []float64 {
	comps := g.Components()
	rootComp := make([]int, len(g.Meta))
	for ci, roots := range comps {
		for _, ri := range roots {
			rootComp[ri] = ci
		}
	}
	patches := make([][]int, len(comps))
	for pid := range s.F.Patches {
		ci := rootComp[s.F.RootOf[pid]]
		patches[ci] = append(patches[ci], pid)
	}
	flux := make([]float64, len(comps))
	for ci := range comps {
		flux[ci] = s.NetFlux(bc, patches[ci])
	}
	return flux
}

// DivergenceVolume returns the enclosed volume of the surface by the
// divergence theorem over the coarse quadrature: V = (1/3)∮ x·n dA.
func DivergenceVolume(s *bie.Surface) float64 { return s.EnclosedVolume() }

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
		v := DivergenceVolume(g.Surface(0, prm))
		if i > 0 {
			errEst = math.Abs(v - prev)
		}
		prev, vol = v, v
	}
	return vol, errEst, nil
}
