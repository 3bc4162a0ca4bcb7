package network

import (
	"math"
	"testing"
)

// segSegDist returns the distance between the straight segments [p0, p1]
// and [q0, q1] (Ericson, Real-Time Collision Detection §5.1.9).
func segSegDist(p0, p1, q0, q1 [3]float64) float64 {
	sub := func(a, b [3]float64) [3]float64 { return [3]float64{a[0] - b[0], a[1] - b[1], a[2] - b[2]} }
	dot := func(a, b [3]float64) float64 { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }
	clamp := func(x float64) float64 { return math.Max(0, math.Min(1, x)) }
	d1, d2, r := sub(p1, p0), sub(q1, q0), sub(p0, q0)
	a, e, f := dot(d1, d1), dot(d2, d2), dot(d2, r)
	c, b := dot(d1, r), dot(d1, d2)
	var s, t float64
	if den := a*e - b*b; den > 0 {
		s = clamp((b*f - c*e) / den)
	}
	t = (b*s + f) / e
	if t < 0 {
		t, s = 0, clamp(-c/a)
	} else if t > 1 {
		t, s = 1, clamp((b-c)/a)
	}
	x := [3]float64{p0[0] + s*d1[0], p0[1] + s*d1[1], p0[2] + s*d1[2]}
	y := [3]float64{q0[0] + t*d2[0], q0[1] + t*d2[1], q0[2] + t*d2[2]}
	return dist(x, y)
}

// TestBinaryTreeTubesSeparate: in the 3-D tree no two tubes that share no
// node come closer than a positive gap (axis distance minus both radii) at
// any depth up to 6, which is what lets every junction blend. The planar
// tree of earlier revisions overlapped its siblings from depth 3 on.
func TestBinaryTreeTubesSeparate(t *testing.T) {
	for depth := 1; depth <= 6; depth++ {
		n := BinaryTree(TreeParams{Depth: depth, RootRadius: 1, RootLen: 5})
		if want := 1<<(depth+1) - 1; len(n.Segs) != want {
			t.Fatalf("depth %d: %d segments, want %d", depth, len(n.Segs), want)
		}
		gap := math.Inf(1)
		for i, si := range n.Segs {
			for _, sj := range n.Segs[i+1:] {
				if si.A == sj.A || si.A == sj.B || si.B == sj.A || si.B == sj.B {
					continue
				}
				d := segSegDist(n.Nodes[si.A].Pos, n.Nodes[si.B].Pos, n.Nodes[sj.A].Pos, n.Nodes[sj.B].Pos)
				gap = math.Min(gap, d-si.Radius-sj.Radius)
			}
		}
		t.Logf("depth %d: smallest gap between non-adjacent tubes %.3f", depth, gap)
		if depth > 1 && !(gap > 0) {
			t.Fatalf("depth %d: non-adjacent tubes overlap (gap %g)", depth, gap)
		}
	}
}

// TestBinaryTreeDepthOnePinned pins the depth-1 tree bit for bit: it lies in
// the xy-plane, as the planar tree of earlier revisions did, so the
// geometry of every depth-1 run is unchanged. murrayRatio is pinned to the
// bits of math.Pow(2, -1.0/3) that the radii have always used.
func TestBinaryTreeDepthOnePinned(t *testing.T) {
	if murrayRatio != math.Pow(2, -1.0/3) {
		t.Fatalf("murrayRatio %v differs from math.Pow(2, -1.0/3) = %v", murrayRatio, math.Pow(2, -1.0/3))
	}
	n := BinaryTree(TreeParams{Depth: 1, RootRadius: 1, RootLen: 5})
	want := [][3]float64{
		{0, 0, 0},
		{5, 0, 0},
		{5 + 3.75*math.Cos(math.Pi/6), 3.75 * math.Sin(math.Pi/6), 0},
		{5 + 3.75*math.Cos(math.Pi/6), 3.75 * math.Sin(-math.Pi/6), 0},
	}
	if len(n.Nodes) != len(want) {
		t.Fatalf("%d nodes, want %d", len(n.Nodes), len(want))
	}
	for i, w := range want {
		for d := 0; d < 3; d++ {
			if got := n.Nodes[i].Pos[d]; math.Float64bits(got) != math.Float64bits(w[d]) {
				t.Errorf("node %d coordinate %d: %v (%#x), want %v (%#x)", i, d, got, math.Float64bits(got), w[d], math.Float64bits(w[d]))
			}
		}
	}
	for si, r := range []float64{1, murrayRatio, murrayRatio} {
		if n.Segs[si].Radius != r {
			t.Errorf("segment %d radius %v, want %v", si, n.Segs[si].Radius, r)
		}
	}
}
