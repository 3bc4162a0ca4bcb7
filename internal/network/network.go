// Package network models a branching vascular network — the Fig. 1/8
// geometry class of the paper that the single closed trefoil channel stood
// in for — as a graph of junction nodes and centerline segments with radii.
// It provides
//
//   - graph types with per-terminal boundary conditions and JSON
//     serialization (network.go, json.go),
//   - parametric builders: Y-bifurcation, symmetric binary tree, honeycomb
//     grid (builders.go),
//   - a reduced-order flow solver — Poiseuille impedance per segment,
//     Kirchhoff conservation at junctions — yielding per-segment flow rates
//     and nodal pressures (flow.go),
//   - a plasma-skimming haematocrit split at bifurcations and
//     haematocrit-driven cell seeding (haematocrit.go),
//   - a rotation-minimizing-frame swept-tube surface generator emitting
//     patch.Patch roots per segment plus junction/terminal end caps, and the
//     parabolic inlet/outlet velocity boundary condition sampled on the cap
//     patches (geometry.go).
//
// The reduced-order solver plays the role of the network-scale models of
// Janoschek et al. (simplified particulate hemodynamics) and sets the
// boundary data for the full boundary-integral simulation, as in Isfahani,
// Zhao & Freund's branching-capillary studies. See DESIGN.md.
package network

import (
	"fmt"

	"rbcflow/internal/patch"
)

// BCKind tags the boundary condition attached to a terminal node.
type BCKind int

const (
	// BCNone marks interior nodes and capped dead ends (no flux).
	BCNone BCKind = iota
	// BCPressure prescribes the nodal pressure.
	BCPressure
	// BCFlow prescribes the volumetric flow INTO the network at the node
	// (negative = withdrawal).
	BCFlow
)

// BC is a terminal boundary condition.
type BC struct {
	Kind  BCKind
	Value float64
}

// Node is a junction or terminal of the vascular graph.
type Node struct {
	Pos [3]float64
	BC  BC
}

// Segment is a tube of constant Radius connecting nodes A and B. The
// centerline is the straight chord by default; optional interior Bezier
// control points Ctrl bend it (the full control polygon is
// Pos[A], Ctrl..., Pos[B]).
type Segment struct {
	A, B   int
	Radius float64
	Ctrl   [][3]float64
}

// Network is a vascular graph.
type Network struct {
	Nodes []Node
	Segs  []Segment
}

// AddNode appends a node and returns its index.
func (n *Network) AddNode(pos [3]float64) int {
	n.Nodes = append(n.Nodes, Node{Pos: pos})
	return len(n.Nodes) - 1
}

// AddSegment appends a straight segment and returns its index.
func (n *Network) AddSegment(a, b int, radius float64) int {
	n.Segs = append(n.Segs, Segment{A: a, B: b, Radius: radius})
	return len(n.Segs) - 1
}

// SetPressure attaches a pressure boundary condition to a node.
func (n *Network) SetPressure(node int, p float64) {
	n.Nodes[node].BC = BC{Kind: BCPressure, Value: p}
}

// SetFlow attaches an inflow boundary condition to a node (positive into
// the network).
func (n *Network) SetFlow(node int, q float64) {
	n.Nodes[node].BC = BC{Kind: BCFlow, Value: q}
}

// Degree returns the number of segment endpoints incident to each node.
func (n *Network) Degree() []int {
	deg := make([]int, len(n.Nodes))
	for _, s := range n.Segs {
		deg[s.A]++
		deg[s.B]++
	}
	return deg
}

// Incident returns, per node, the indices of incident segments.
func (n *Network) Incident() [][]int {
	inc := make([][]int, len(n.Nodes))
	for si, s := range n.Segs {
		inc[s.A] = append(inc[s.A], si)
		if s.B != s.A {
			inc[s.B] = append(inc[s.B], si)
		}
	}
	return inc
}

// Terminals returns the indices of degree-1 nodes (inlets, outlets and
// capped dead ends).
func (n *Network) Terminals() []int {
	var out []int
	for i, d := range n.Degree() {
		if d == 1 {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks structural soundness: non-empty, indices in range,
// positive radii, no self-loops, boundary conditions only on terminals, and
// a connected graph.
func (n *Network) Validate() error {
	if len(n.Nodes) < 2 || len(n.Segs) < 1 {
		return fmt.Errorf("network: need at least 2 nodes and 1 segment, have %d/%d", len(n.Nodes), len(n.Segs))
	}
	for si, s := range n.Segs {
		if s.A < 0 || s.A >= len(n.Nodes) || s.B < 0 || s.B >= len(n.Nodes) {
			return fmt.Errorf("network: segment %d endpoint out of range", si)
		}
		if s.A == s.B {
			return fmt.Errorf("network: segment %d is a self-loop", si)
		}
		if !(s.Radius > 0) {
			return fmt.Errorf("network: segment %d has non-positive radius %g", si, s.Radius)
		}
	}
	deg := n.Degree()
	for i, nd := range n.Nodes {
		if nd.BC.Kind != BCNone && deg[i] != 1 {
			return fmt.Errorf("network: node %d has a boundary condition but degree %d (BCs only on terminals)", i, deg[i])
		}
		if deg[i] == 0 {
			return fmt.Errorf("network: node %d is isolated", i)
		}
	}
	// Connectivity by BFS over segments.
	seen := make([]bool, len(n.Nodes))
	queue := []int{0}
	seen[0] = true
	inc := n.Incident()
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, si := range inc[v] {
			s := n.Segs[si]
			for _, w := range [2]int{s.A, s.B} {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("network: node %d not connected to node 0", i)
		}
	}
	return nil
}

// Curve is the centerline of a segment: a Bezier curve through the segment's
// control polygon, with arc length precomputed by composite quadrature.
type Curve struct {
	ctrl   [][3]float64
	length float64
}

// Curve builds the centerline of segment si.
func (n *Network) Curve(si int) *Curve {
	s := n.Segs[si]
	ctrl := make([][3]float64, 0, len(s.Ctrl)+2)
	ctrl = append(ctrl, n.Nodes[s.A].Pos)
	ctrl = append(ctrl, s.Ctrl...)
	ctrl = append(ctrl, n.Nodes[s.B].Pos)
	c := &Curve{ctrl: ctrl}
	// Composite midpoint arc length (plenty for low-degree Beziers).
	const m = 256
	var L float64
	for i := 0; i < m; i++ {
		t := (float64(i) + 0.5) / m
		L += patch.Norm(c.Tangent(t)) / m
	}
	c.length = L
	return c
}

// Point evaluates the Bezier centerline at t ∈ [0, 1] by de Casteljau.
func (c *Curve) Point(t float64) [3]float64 {
	pts := make([][3]float64, len(c.ctrl))
	copy(pts, c.ctrl)
	for k := len(pts) - 1; k > 0; k-- {
		for i := 0; i < k; i++ {
			for d := 0; d < 3; d++ {
				pts[i][d] = (1-t)*pts[i][d] + t*pts[i+1][d]
			}
		}
	}
	return pts[0]
}

// Tangent returns dP/dt (not normalized) at t.
func (c *Curve) Tangent(t float64) [3]float64 {
	nc := len(c.ctrl)
	if nc == 2 {
		return [3]float64{
			c.ctrl[1][0] - c.ctrl[0][0],
			c.ctrl[1][1] - c.ctrl[0][1],
			c.ctrl[1][2] - c.ctrl[0][2],
		}
	}
	// Derivative Bezier with control points n·(P_{i+1} − P_i).
	deg := float64(nc - 1)
	dc := &Curve{ctrl: make([][3]float64, nc-1)}
	for i := 0; i < nc-1; i++ {
		for d := 0; d < 3; d++ {
			dc.ctrl[i][d] = deg * (c.ctrl[i+1][d] - c.ctrl[i][d])
		}
	}
	return dc.Point(t)
}

// Length returns the arc length of the centerline.
func (c *Curve) Length() float64 { return c.length }

// Straight reports whether the centerline is a straight chord (no control
// points), in which case arc length is exactly linear in the parameter.
func (c *Curve) Straight() bool { return len(c.ctrl) == 2 }

// UnitTangent returns the normalized tangent at t.
func (c *Curve) UnitTangent(t float64) [3]float64 {
	return patch.Normalize(c.Tangent(t))
}

// SegmentLength returns the centerline arc length of segment si: the exact
// chord of a straight segment, the Curve's arc quadrature of a bent one.
func (n *Network) SegmentLength(si int) float64 {
	s := n.Segs[si]
	if len(s.Ctrl) > 0 {
		return n.Curve(si).Length()
	}
	a, b := n.Nodes[s.A].Pos, n.Nodes[s.B].Pos
	return patch.Norm([3]float64{b[0] - a[0], b[1] - a[1], b[2] - a[2]})
}
