package network

import (
	"math"

	"rbcflow/internal/patch"
)

// YParams configures the Y-bifurcation builder.
type YParams struct {
	ParentRadius float64 // parent tube radius
	ChildRadius  float64 // radius of both children (0 = murrayRatio·parent)
	ParentLen    float64 // parent centerline length
	ChildLen     float64 // child centerline length
	HalfAngle    float64 // half opening angle between the children (radians)
}

// YBifurcation builds the canonical diverging bifurcation: one parent
// segment along +x splitting into two children at ±HalfAngle in the
// xy-plane. Node 0 is the parent terminal (inlet), nodes 2 and 3 the child
// terminals (outlets). No boundary conditions are attached.
func YBifurcation(p YParams) *Network {
	if p.ChildRadius == 0 {
		p.ChildRadius = p.ParentRadius * murrayRatio
	}
	n := &Network{}
	in := n.AddNode([3]float64{0, 0, 0})
	j := n.AddNode([3]float64{p.ParentLen, 0, 0})
	c, s := math.Cos(p.HalfAngle), math.Sin(p.HalfAngle)
	o1 := n.AddNode([3]float64{p.ParentLen + p.ChildLen*c, p.ChildLen * s, 0})
	o2 := n.AddNode([3]float64{p.ParentLen + p.ChildLen*c, -p.ChildLen * s, 0})
	n.AddSegment(in, j, p.ParentRadius)
	n.AddSegment(j, o1, p.ChildRadius)
	n.AddSegment(j, o2, p.ChildRadius)
	return n
}

// TreeParams configures the symmetric binary tree builder.
type TreeParams struct {
	Depth      int     // bifurcation generations (depth 0 = single segment)
	RootRadius float64 // radius of the root segment
	RootLen    float64 // length of the root segment
}

// murrayRatio is the child/parent radius of a symmetric bifurcation under
// Murray's law, 2^(−1/3), to the bit of math.Pow(2, -1.0/3).
const murrayRatio = 0.7937005259840999

const (
	// treeHalfAngle is the half opening angle of every bifurcation of
	// BinaryTree.
	treeHalfAngle = math.Pi / 6
	// treeLenRatio is the child/parent segment length of BinaryTree.
	treeLenRatio = 0.75
)

// BinaryTree builds a symmetric binary tree in 3-D: a root segment along +x
// that bifurcates Depth times. Every bifurcation opens by ±treeHalfAngle in
// its branching plane, spanned by the parent axis d and an in-plane axis b
// normal to it; the children run along cos h·d ± sin h·b, and their own
// branching plane is turned 90° about the parent axis (in-plane axis d × b).
// Subtrees therefore separate out of plane: tubes that share no node keep
// a positive gap (0.658 at depth 5 for a root of radius 1 and length 5), so
// every junction blends. Radii fall by Murray's law and lengths by
// treeLenRatio per generation. Node 0 is the root terminal; the 2^Depth
// leaf terminals carry no boundary conditions. The first bifurcation lies
// in the xy-plane.
func BinaryTree(p TreeParams) *Network {
	n := &Network{}
	root := n.AddNode([3]float64{0, 0, 0})
	ch, sh := math.Cos(treeHalfAngle), math.Sin(treeHalfAngle)
	var grow func(from int, d, b [3]float64, r, L float64, gen int)
	grow = func(from int, d, b [3]float64, r, L float64, gen int) {
		pos := n.Nodes[from].Pos
		end := n.AddNode([3]float64{pos[0] + L*d[0], pos[1] + L*d[1], pos[2] + L*d[2]})
		n.AddSegment(from, end, r)
		if gen >= p.Depth {
			return
		}
		nb := patch.Cross(d, b)
		for _, sgn := range [2]float64{1, -1} {
			c := [3]float64{ch*d[0] + sgn*sh*b[0], ch*d[1] + sgn*sh*b[1], ch*d[2] + sgn*sh*b[2]}
			grow(end, c, nb, r*murrayRatio, L*treeLenRatio, gen+1)
		}
	}
	grow(root, [3]float64{1, 0, 0}, [3]float64{0, 1, 0}, p.RootRadius, p.RootLen, 0)
	return n
}

// HoneycombParams configures the honeycomb grid builder.
type HoneycombParams struct {
	Rows, Cols int     // hexagonal cells per column / number of columns (0 = 1)
	Radius     float64 // tube radius of every edge
	Edge       float64 // hexagon edge length, center-to-vertex (0 = 2)
	StubLen    float64 // length of the inlet/outlet stubs (0 = Edge)
}

// Honeycomb builds a planar honeycomb capillary grid of Rows×Cols hexagonal
// cells (flat-top orientation) plus one inlet stub at the leftmost vertex
// and one outlet stub at the rightmost vertex, so the grid has exactly two
// degree-1 terminals for boundary conditions. Returns the network and the
// (inlet, outlet) terminal node indices.
func Honeycomb(p HoneycombParams) (*Network, int, int) {
	if p.Rows < 1 {
		p.Rows = 1
	}
	if p.Cols < 1 {
		p.Cols = 1
	}
	if p.Edge == 0 {
		p.Edge = 2
	}
	if p.StubLen == 0 {
		p.StubLen = p.Edge
	}
	n := &Network{}
	a := p.Edge
	// Vertex dedup on a fine grid of the coordinates.
	key := func(x, y float64) [2]int64 {
		const q = 1e6
		return [2]int64{int64(math.Round(x * q / a)), int64(math.Round(y * q / a))}
	}
	verts := map[[2]int64]int{}
	getVert := func(x, y float64) int {
		k := key(x, y)
		if id, ok := verts[k]; ok {
			return id
		}
		id := n.AddNode([3]float64{x, y, 0})
		verts[k] = id
		return id
	}
	edges := map[[2]int]bool{}
	addEdge := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		k := [2]int{u, v}
		if edges[k] || u == v {
			return
		}
		edges[k] = true
		n.AddSegment(u, v, p.Radius)
	}
	for col := 0; col < p.Cols; col++ {
		for row := 0; row < p.Rows; row++ {
			cx := 1.5 * a * float64(col)
			cy := math.Sqrt(3) * a * (float64(row) + 0.5*float64(col&1))
			var ids [6]int
			for k := 0; k < 6; k++ {
				th := math.Pi / 3 * float64(k)
				ids[k] = getVert(cx+a*math.Cos(th), cy+a*math.Sin(th))
			}
			for k := 0; k < 6; k++ {
				addEdge(ids[k], ids[(k+1)%6])
			}
		}
	}
	// Stubs at the extreme-x vertices (ties broken by y for determinism).
	minI, maxI := 0, 0
	for i, nd := range n.Nodes {
		better := func(cand, best Node, min bool) bool {
			if cand.Pos[0] != best.Pos[0] {
				if min {
					return cand.Pos[0] < best.Pos[0]
				}
				return cand.Pos[0] > best.Pos[0]
			}
			return cand.Pos[1] < best.Pos[1]
		}
		if better(nd, n.Nodes[minI], true) {
			minI = i
		}
		if better(nd, n.Nodes[maxI], false) {
			maxI = i
		}
	}
	inlet := n.AddNode([3]float64{n.Nodes[minI].Pos[0] - p.StubLen, n.Nodes[minI].Pos[1], 0})
	outlet := n.AddNode([3]float64{n.Nodes[maxI].Pos[0] + p.StubLen, n.Nodes[maxI].Pos[1], 0})
	n.AddSegment(inlet, minI, p.Radius)
	n.AddSegment(maxI, outlet, p.Radius)
	return n, inlet, outlet
}
