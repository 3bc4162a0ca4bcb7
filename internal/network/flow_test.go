package network

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// solveBoth assembles n at uniform viscosity mu once and solves the reduced
// system on both backends: dense LU first, Jacobi-CG second.
func solveBoth(t *testing.T, n *Network, mu float64) [2]*FlowSolution {
	t.Helper()
	visc := make([]float64, len(n.Segs))
	for i := range visc {
		visc[i] = mu
	}
	k, err := assemble(n, visc)
	if err != nil {
		t.Fatal(err)
	}
	xd, err := k.solveDense()
	if err != nil {
		t.Fatal(err)
	}
	xc, iters, err := k.solveCG()
	if err != nil {
		t.Fatal(err)
	}
	if len(xc) > 0 && iters == 0 {
		t.Fatal("CG backend reported zero iterations on a non-trivial system")
	}
	var out [2]*FlowSolution
	for i, x := range [][]float64{xd, xc} {
		p, q := k.flows(n, x)
		out[i] = &FlowSolution{P: p, Q: q, Cond: k.cond}
	}
	return out
}

var backendNames = [2]string{"dense", "cg"}

// snippetNetwork is the 7-vessel network of a haematocrit-transport test:
// an inlet vessel n1→n2, a loop n2→{n3, n4}→n5 of two equal arms, and two
// outlet vessels n5→n6→n7, every vessel length 100 and radius 10.
func snippetNetwork() *Network {
	const L = 100.0
	c, s := math.Cos(math.Pi/6)*L, math.Sin(math.Pi/6)*L
	n := &Network{}
	for _, p := range [][3]float64{
		{0, 0, 0}, {L, 0, 0}, {L + c, s, 0}, {L + c, -s, 0},
		{L + 2*c, 0, 0}, {2*L + 2*c, 0, 0}, {3*L + 2*c, 0, 0},
	} {
		n.AddNode(p)
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}, {5, 6}} {
		n.AddSegment(e[0], e[1], 10)
	}
	return n
}

func TestKirchhoffSnippetLoop(t *testing.T) {
	const mu = 1e-3
	n := snippetNetwork()
	n.SetPressure(0, 5000)
	n.SetPressure(6, 3000)
	R := func(si int) float64 { return n.Resistance(si, mu) }
	arm1, arm2 := R(1)+R(3), R(2)+R(4)
	want := 2000 / (R(0) + arm1*arm2/(arm1+arm2) + R(5) + R(6))
	for b, f := range solveBoth(t, n, mu) {
		if math.Abs(f.Q[0]-want) > 1e-12*want {
			t.Fatalf("%s: total flow %v, want %v", backendNames[b], f.Q[0], want)
		}
		if math.Abs(f.Q[1]-f.Q[2]) > 1e-12*want || math.Abs(f.Q[3]-f.Q[4]) > 1e-12*want {
			t.Fatalf("%s: equal arms split unevenly: %v", backendNames[b], f.Q)
		}
	}
}

func TestKirchhoffFlowBoundaryConditions(t *testing.T) {
	n := snippetNetwork()
	n.SetFlow(0, 10)
	n.SetFlow(6, -10)
	for b, f := range solveBoth(t, n, 1e-3) {
		if f.P[0] != 0 {
			t.Fatalf("%s: flow-only network not pinned at node 0: p0 = %v", backendNames[b], f.P[0])
		}
		if math.Abs(f.Q[0]-10) > 1e-12*10 || math.Abs(f.Q[6]-10) > 1e-12*10 {
			t.Fatalf("%s: balanced pair carries %v in, %v out, want 10", backendNames[b], f.Q[0], f.Q[6])
		}
	}

	n.SetFlow(6, -5)
	if _, err := SolveFlow(n, 1e-3); err == nil || !strings.Contains(err.Error(), "must sum to zero") {
		t.Fatalf("unbalanced flow-only pair: got %v, want a must-sum-to-zero error", err)
	}

	n.SetPressure(6, 0)
	for b, f := range solveBoth(t, n, 1e-3) {
		if f.P[6] != 0 || math.Abs(f.Q[6]-10) > 1e-12*10 {
			t.Fatalf("%s: pressure outlet p = %v carries %v, want 0 and 10", backendNames[b], f.P[6], f.Q[6])
		}
	}
}

// TestKirchhoffPressureBCOnly exercises the pure-Dirichlet branch (no flow
// BC, no pinning node) of the assembly.
func TestKirchhoffPressureBCOnly(t *testing.T) {
	n := YBifurcation(YParams{ParentRadius: 1, ChildRadius: 0.75, ParentLen: 5, ChildLen: 4, HalfAngle: math.Pi / 5})
	n.SetPressure(0, 5)
	n.SetPressure(2, 0)
	n.SetPressure(3, 1)
	fs := solveBoth(t, n, 1)
	for s := range fs[0].Q {
		if d := math.Abs(fs[0].Q[s] - fs[1].Q[s]); d > 1e-12*math.Abs(fs[0].Q[0]) {
			t.Fatalf("segment %d: dense %v vs cg %v", s, fs[0].Q[s], fs[1].Q[s])
		}
	}
	for b, f := range fs {
		if imb := f.MaxImbalance(n); imb > 1e-12*f.Q[0] {
			t.Fatalf("%s: mass imbalance %g", backendNames[b], imb)
		}
	}
}

// TestSparseMatchesDense compares the two backends on one assembled tree
// big enough to be interesting but small enough to LU.
func TestSparseMatchesDense(t *testing.T) {
	n := BinaryTree(TreeParams{Depth: 7, RootRadius: 1, RootLen: 5})
	n.SetFlow(0, 2)
	for _, term := range n.Terminals() {
		if term != 0 {
			n.SetPressure(term, 0)
		}
	}
	fs := solveBoth(t, n, 1.3)
	var pScale float64
	for _, p := range fs[0].P {
		pScale = math.Max(pScale, math.Abs(p))
	}
	for i := range fs[0].P {
		if d := math.Abs(fs[0].P[i] - fs[1].P[i]); d > 1e-9*pScale {
			t.Fatalf("node %d pressure: dense %g vs cg %g", i, fs[0].P[i], fs[1].P[i])
		}
	}
	if imb := fs[1].MaxImbalance(n); imb > 1e-12*2 {
		t.Fatalf("cg mass imbalance %g", imb)
	}
}

// fanTree is an inlet stub feeding a straight spine of spine nodes, each
// carrying fan pressure-outlet leaves: 1 + spine·(1+fan) nodes, of which
// only the inlet and the spine are unknowns, so a network past the backend
// threshold still factors densely in milliseconds.
func fanTree(spine, fan int) *Network {
	n := &Network{}
	n.AddNode([3]float64{-2, 0, 0})
	prev := 0
	for i := 0; i < spine; i++ {
		s := n.AddNode([3]float64{2 * float64(i), 0, 0})
		n.AddSegment(prev, s, 1)
		for j := 0; j < fan; j++ {
			phi := 2 * math.Pi * float64(j) / float64(fan)
			leaf := n.AddNode([3]float64{2 * float64(i), 3 * math.Cos(phi), 3 * math.Sin(phi)})
			n.AddSegment(s, leaf, 0.3)
			n.SetPressure(leaf, 0)
		}
		prev = s
	}
	n.SetFlow(0, 1)
	return n
}

func TestBackendThreshold(t *testing.T) {
	for _, c := range []struct {
		spine, fan int
		sparse     bool
	}{{63, 64, false}, {64, 63, true}} {
		n := fanTree(c.spine, c.fan)
		f, err := SolveFlow(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if f.Sparse != c.sparse || (f.CGIters > 0) != c.sparse {
			t.Fatalf("%d nodes: Sparse=%v CGIters=%d, want Sparse=%v", len(n.Nodes), f.Sparse, f.CGIters, c.sparse)
		}
	}
}

// TestBentSegmentAboveThreshold pins the one length rule on the CG side: a
// Bézier-bent segment's conductance uses its arc length there too, and the
// CG flows match the dense solve of the same system.
func TestBentSegmentAboveThreshold(t *testing.T) {
	const mu = 1.7
	n := fanTree(64, 64)
	bent := 1 + 64 // the spine segment after the first fan
	s := n.Segs[bent]
	a, b := n.Nodes[s.A].Pos, n.Nodes[s.B].Pos
	n.Segs[bent].Ctrl = [][3]float64{{(a[0] + b[0]) / 2, 1.5, 0.5}}
	f, err := SolveFlow(n, mu)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Sparse {
		t.Fatalf("%d-node network took the dense backend", len(n.Nodes))
	}
	r, L := s.Radius, n.SegmentLength(bent)
	if L <= 2.1 {
		t.Fatalf("bent segment length %v should exceed its chord 2", L)
	}
	if want := math.Pi * r * r * r * r / (8 * mu * L); math.Abs(f.Cond[bent]-want) > 1e-14*want {
		t.Fatalf("bent segment conductance %v, want πr⁴/(8μL) = %v", f.Cond[bent], want)
	}
	dense := solveBoth(t, n, mu)[0]
	for si := range f.Q {
		if d := math.Abs(f.Q[si] - dense.Q[si]); d > 1e-10 {
			t.Fatalf("segment %d: cg flow %v vs dense %v", si, f.Q[si], dense.Q[si])
		}
	}
}

// randomNetwork grows a seeded random network: an inlet stub at node 0
// (inflow 1), a core tree of core nodes each hung off a random earlier core
// node, leaves hung off random core nodes up to total nodes, and extra
// segments between random core pairs closing cycles. Every terminal is a
// pressure outlet at p = 0 except one in twenty, left a capped dead end.
func randomNetwork(seed int64, core, total, extra int) *Network {
	rng := rand.New(rand.NewSource(seed))
	n := &Network{}
	n.AddNode([3]float64{})
	grow := func(parent int) {
		p := n.Nodes[parent].Pos
		c := n.AddNode([3]float64{p[0] + 1 + rng.Float64(), p[1] + 2*rng.Float64() - 1, p[2] + 2*rng.Float64() - 1})
		n.AddSegment(parent, c, 0.3+0.7*rng.Float64())
	}
	grow(0)
	for len(n.Nodes) <= core {
		grow(1 + rng.Intn(len(n.Nodes)-1))
	}
	for len(n.Nodes) < total {
		grow(1 + rng.Intn(core))
	}
	for i := 0; i < extra; i++ {
		a, b := 1+rng.Intn(core), 1+rng.Intn(core)
		if a != b {
			n.AddSegment(a, b, 0.3+0.7*rng.Float64())
		}
	}
	n.SetFlow(0, 1)
	for _, term := range n.Terminals() {
		if term != 0 && rng.Intn(20) != 0 {
			n.SetPressure(term, 0)
		}
	}
	return n
}

// TestFlowConservationProperty checks both backends on seeded random trees
// and random graphs with cycles, one size on each side of the threshold:
// mass and RBC flux are conserved, and a repeated solve is bit-identical.
func TestFlowConservationProperty(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		for _, c := range []struct {
			core, total int
			cycles      bool
		}{{300, 3000, false}, {300, 3000, true}, {500, 5000, false}, {500, 5000, true}} {
			extra := 0
			if c.cycles {
				extra = c.core / 4
			}
			n := randomNetwork(seed, c.core, c.total, extra)
			f, err := SolveFlow(n, 1.2)
			if err != nil {
				t.Fatal(err)
			}
			if f.Sparse != (len(n.Nodes) > denseMaxNodes) {
				t.Fatalf("%d nodes: Sparse=%v", len(n.Nodes), f.Sparse)
			}
			if imb := f.MaxImbalance(n); imb > 1e-12 {
				t.Fatalf("seed %d, %d nodes, cycles=%v: mass imbalance %g", seed, len(n.Nodes), c.cycles, imb)
			}
			H := SplitHaematocrit(n, f, HaematocritParams{Inlet: 0.3, Gamma: 1.4})
			if imb := RBCFluxImbalance(n, f, H); imb > 1e-12 {
				t.Fatalf("seed %d, %d nodes, cycles=%v: RBC-flux imbalance %g", seed, len(n.Nodes), c.cycles, imb)
			}
			g, err := SolveFlow(n, 1.2)
			if err != nil {
				t.Fatal(err)
			}
			for i := range f.P {
				if math.Float64bits(f.P[i]) != math.Float64bits(g.P[i]) {
					t.Fatalf("seed %d, %d nodes: repeated solve differs at node %d", seed, len(n.Nodes), i)
				}
			}
			if f.CGIters != g.CGIters {
				t.Fatalf("repeated solve took %d then %d CG iterations", f.CGIters, g.CGIters)
			}
		}
	}
}

// TestSegmentLengthRule: a straight segment's length is its exact chord; a
// bent one's is the centerline's arc quadrature.
func TestSegmentLengthRule(t *testing.T) {
	n := chain(0.5, 3, 0.5, 4)
	if got := n.SegmentLength(1); got != 4 {
		t.Fatalf("straight segment length %v, want exactly 4", got)
	}
	n.Segs[1].Ctrl = [][3]float64{{5, 1, 0}}
	if got, want := n.SegmentLength(1), n.Curve(1).Length(); got != want {
		t.Fatalf("bent segment length %v, want arc length %v", got, want)
	}
}
