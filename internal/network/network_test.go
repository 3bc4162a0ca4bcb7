package network

import (
	"math"
	"path/filepath"
	"testing"
)

// chain builds a 2-segment series network with the given radii and lengths.
func chain(r1, l1, r2, l2 float64) *Network {
	n := &Network{}
	a := n.AddNode([3]float64{0, 0, 0})
	b := n.AddNode([3]float64{l1, 0, 0})
	c := n.AddNode([3]float64{l1 + l2, 0, 0})
	n.AddSegment(a, b, r1)
	n.AddSegment(b, c, r2)
	return n
}

func TestSeriesResistance(t *testing.T) {
	// Two Poiseuille resistors in series: Q = Δp / (R1 + R2).
	mu := 3.0
	n := chain(0.5, 4, 0.3, 2)
	n.SetPressure(0, 10)
	n.SetPressure(2, 1)
	f, err := SolveFlow(n, mu)
	if err != nil {
		t.Fatal(err)
	}
	R1 := resistance(n, 0, mu)
	R2 := resistance(n, 1, mu)
	want := (10.0 - 1.0) / (R1 + R2)
	for si := 0; si < 2; si++ {
		if math.Abs(f.Q[si]-want) > 1e-12*want {
			t.Fatalf("segment %d flow %v want %v", si, f.Q[si], want)
		}
	}
	// Intermediate pressure from the voltage divider.
	wantP := 10 - want*R1
	if math.Abs(f.P[1]-wantP) > 1e-12*math.Abs(wantP) {
		t.Fatalf("mid pressure %v want %v", f.P[1], wantP)
	}
}

func TestParallelResistance(t *testing.T) {
	// Two segments between the same node pair: Q_total = Δp (1/R1 + 1/R2).
	mu := 1.0
	n := &Network{}
	a := n.AddNode([3]float64{0, 0, 0})
	b := n.AddNode([3]float64{5, 0, 0})
	c := n.AddNode([3]float64{10, 0, 0})
	d := n.AddNode([3]float64{13, 0, 0})
	feed := n.AddSegment(a, b, 0.4)
	s1 := n.AddSegment(b, c, 0.35)
	s2 := len(n.Segs)
	n.Segs = append(n.Segs, Segment{A: b, B: c, Radius: 0.25, Ctrl: [][3]float64{{7.5, 2, 0}}})
	tail := n.AddSegment(c, d, 0.4)
	n.SetPressure(0, 6)
	n.SetPressure(d, 0)
	f, err := SolveFlow(n, mu)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic equivalent circuit: feed + (R1 ∥ R2) + tail.
	R1, R2 := resistance(n, s1, mu), resistance(n, s2, mu)
	Req := resistance(n, feed, mu) + R1*R2/(R1+R2) + resistance(n, tail, mu)
	want := 6.0 / Req
	if math.Abs(f.Q[feed]-want) > 1e-12*want {
		t.Fatalf("feed flow %v want %v", f.Q[feed], want)
	}
	if got := f.Q[s1] + f.Q[s2]; math.Abs(got-want) > 1e-12*want {
		t.Fatalf("parallel total flow %v want %v", got, want)
	}
	// The parallel pair splits inversely to resistance.
	if math.Abs(f.Q[s1]*R1-f.Q[s2]*R2) > 1e-12*math.Abs(f.Q[s1]*R1) {
		t.Fatalf("parallel split wrong: Q1R1=%v Q2R2=%v", f.Q[s1]*R1, f.Q[s2]*R2)
	}
	// The bent parallel branch is longer than the chord, so its resistance
	// uses the arc length.
	if n.SegmentLength(s2) <= 5 {
		t.Fatalf("bezier branch should be longer than the chord: %v", n.SegmentLength(s2))
	}
}

func TestBinaryTreeMassConservation(t *testing.T) {
	// Acceptance criterion: |ΣQ_in − ΣQ_out| ≤ 1e-10 at every junction of a
	// depth-3 binary tree.
	n := BinaryTree(TreeParams{Depth: 3, RootRadius: 0.5, RootLen: 4})
	n.SetFlow(0, 2.5)
	for _, term := range n.Terminals() {
		if term != 0 {
			n.SetPressure(term, 0)
		}
	}
	f, err := SolveFlow(n, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if imb := f.MaxImbalance(n); imb > 1e-10 {
		t.Fatalf("mass conservation violated: max imbalance %g", imb)
	}
	// The inlet flow splits evenly by symmetry: each of the 8 leaves gets
	// 2.5/8.
	leaves := 0
	for _, term := range n.Terminals() {
		if term == 0 {
			continue
		}
		leaves++
		q := -f.TerminalInflow(n, term) // outflow
		if math.Abs(q-2.5/8) > 1e-10 {
			t.Fatalf("leaf %d outflow %v want %v", term, q, 2.5/8)
		}
	}
	if leaves != 8 {
		t.Fatalf("depth-3 tree should have 8 leaves, got %d", leaves)
	}
}

func TestDeadEndCarriesNoFlow(t *testing.T) {
	// A terminal without a BC is a capped dead end: zero flux through it.
	n := YBifurcation(YParams{ParentRadius: 0.5, ParentLen: 3, ChildLen: 2, HalfAngle: 0.5})
	n.SetPressure(0, 5)
	n.SetPressure(2, 0)
	// Node 3 has no BC.
	f, err := SolveFlow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Q[2]) > 1e-12 {
		t.Fatalf("dead-end branch carries flow %g", f.Q[2])
	}
	if f.Q[0] <= 0 || math.Abs(f.Q[0]-f.Q[1]) > 1e-12*f.Q[0] {
		t.Fatalf("live path flows %v %v", f.Q[0], f.Q[1])
	}
}

func TestFlowOnlyBCsMustBalance(t *testing.T) {
	n := chain(0.5, 2, 0.5, 2)
	n.SetFlow(0, 1)
	n.SetFlow(2, -0.5)
	if _, err := SolveFlow(n, 1); err == nil {
		t.Fatal("expected error for unbalanced flow-only BCs")
	}
	n.SetFlow(2, -1)
	f, err := SolveFlow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Q[0]-1) > 1e-10 {
		t.Fatalf("flow %v want 1", f.Q[0])
	}
}

func TestHaematocritConservationAndSkimming(t *testing.T) {
	// Asymmetric Y: the wider child takes more flow, and with Gamma > 1 it
	// must receive a HIGHER haematocrit; RBC flux is conserved exactly.
	n := &Network{}
	in := n.AddNode([3]float64{0, 0, 0})
	j := n.AddNode([3]float64{4, 0, 0})
	o1 := n.AddNode([3]float64{7, 2, 0})
	o2 := n.AddNode([3]float64{7, -2, 0})
	n.AddSegment(in, j, 0.5)
	n.AddSegment(j, o1, 0.45) // wide child
	n.AddSegment(j, o2, 0.25) // narrow child
	n.SetFlow(in, 1.0)
	n.SetPressure(o1, 0)
	n.SetPressure(o2, 0)
	f, err := SolveFlow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	prm := HaematocritParams{Inlet: 0.25, Gamma: 1.5}
	H := SplitHaematocrit(n, f, prm)
	if math.Abs(H[0]-0.25) > 1e-12 {
		t.Fatalf("parent haematocrit %v want 0.25", H[0])
	}
	if imb := RBCFluxImbalance(n, f, H); imb > 1e-12 {
		t.Fatalf("RBC flux imbalance %g", imb)
	}
	if f.Q[1] <= f.Q[2] {
		t.Fatalf("wide child should carry more flow: %v vs %v", f.Q[1], f.Q[2])
	}
	if H[1] <= H[0] || H[2] >= H[0] {
		t.Fatalf("plasma skimming should enrich the fast branch: H=%v", H)
	}
	// Gamma = 1 is a passive split: both children inherit the parent value.
	Hp := SplitHaematocrit(n, f, HaematocritParams{Inlet: 0.25, Gamma: 1})
	for si := 0; si < 3; si++ {
		if math.Abs(Hp[si]-0.25) > 1e-12 {
			t.Fatalf("passive split changed haematocrit: %v", Hp)
		}
	}
}

func TestHaematocritThroughTree(t *testing.T) {
	// Symmetric tree: every branch keeps the inlet haematocrit, any gamma.
	n := BinaryTree(TreeParams{Depth: 2, RootRadius: 0.5, RootLen: 4})
	n.SetFlow(0, 1)
	for _, term := range n.Terminals() {
		if term != 0 {
			n.SetPressure(term, 0)
		}
	}
	f, err := SolveFlow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	H := SplitHaematocrit(n, f, HaematocritParams{Inlet: 0.3, Gamma: 1.6})
	for si, h := range H {
		if math.Abs(h-0.3) > 1e-9 {
			t.Fatalf("segment %d haematocrit %v want 0.3", si, h)
		}
	}
	if imb := RBCFluxImbalance(n, f, H); imb > 1e-12 {
		t.Fatalf("RBC flux imbalance %g", imb)
	}
}

func TestHoneycombSolves(t *testing.T) {
	n, inlet, outlet := Honeycomb(HoneycombParams{Rows: 2, Cols: 3, Radius: 0.2, Edge: 2})
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	n.SetPressure(inlet, 8)
	n.SetPressure(outlet, 0)
	f, err := SolveFlow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if imb := f.MaxImbalance(n); imb > 1e-10 {
		t.Fatalf("honeycomb imbalance %g", imb)
	}
	qin := f.TerminalInflow(n, inlet)
	qout := -f.TerminalInflow(n, outlet)
	if qin <= 0 || math.Abs(qin-qout) > 1e-10*qin {
		t.Fatalf("inlet/outlet flux mismatch: %v vs %v", qin, qout)
	}
	// Haematocrit transport across a multiply-connected (looped) graph.
	H := SplitHaematocrit(n, f, HaematocritParams{Inlet: 0.2, Gamma: 1.3})
	if imb := RBCFluxImbalance(n, f, H); imb > 1e-10 {
		t.Fatalf("honeycomb RBC flux imbalance %g", imb)
	}
	if H[len(H)-1] < 0.19 || H[len(H)-1] > 0.21 {
		t.Fatalf("outlet stub haematocrit %v want ≈0.2", H[len(H)-1])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	n := YBifurcation(YParams{ParentRadius: 0.5, ChildRadius: 0.4, ParentLen: 3, ChildLen: 2, HalfAngle: 0.6})
	n.SetFlow(0, 1.5)
	n.SetPressure(2, 0)
	n.SetPressure(3, 0)
	n.Segs[1].Ctrl = [][3]float64{{4, 0.5, 0.2}}
	path := filepath.Join(t.TempDir(), "net.json")
	if err := Save(n, path); err != nil {
		t.Fatal(err)
	}
	m, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Nodes) != len(n.Nodes) || len(m.Segs) != len(n.Segs) {
		t.Fatalf("round trip changed sizes: %d/%d nodes, %d/%d segs",
			len(m.Nodes), len(n.Nodes), len(m.Segs), len(n.Segs))
	}
	for i := range n.Nodes {
		if m.Nodes[i] != n.Nodes[i] {
			t.Fatalf("node %d changed: %+v vs %+v", i, m.Nodes[i], n.Nodes[i])
		}
	}
	for i := range n.Segs {
		if m.Segs[i].A != n.Segs[i].A || m.Segs[i].B != n.Segs[i].B || m.Segs[i].Radius != n.Segs[i].Radius {
			t.Fatalf("segment %d changed", i)
		}
	}
	if len(m.Segs[1].Ctrl) != 1 || m.Segs[1].Ctrl[0] != n.Segs[1].Ctrl[0] {
		t.Fatalf("control points lost: %+v", m.Segs[1].Ctrl)
	}
	// Identical physics after the round trip.
	f1, err := SolveFlow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := SolveFlow(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for si := range f1.Q {
		if math.Abs(f1.Q[si]-f2.Q[si]) > 1e-14 {
			t.Fatalf("flow changed after round trip: %v vs %v", f1.Q[si], f2.Q[si])
		}
	}
}

func TestValidateRejectsBadNetworks(t *testing.T) {
	// BC on an interior node.
	n := chain(0.5, 2, 0.5, 2)
	n.SetPressure(1, 3)
	if err := n.Validate(); err == nil {
		t.Fatal("interior BC accepted")
	}
	// Self loop.
	n2 := chain(0.5, 2, 0.5, 2)
	n2.Segs[1].B = n2.Segs[1].A
	if err := n2.Validate(); err == nil {
		t.Fatal("self loop accepted")
	}
	// Disconnected.
	n3 := chain(0.5, 2, 0.5, 2)
	a := n3.AddNode([3]float64{50, 0, 0})
	b := n3.AddNode([3]float64{52, 0, 0})
	n3.AddSegment(a, b, 0.1)
	if err := n3.Validate(); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

// resistance returns the Poiseuille resistance 8μL/(πr⁴) of segment si.
func resistance(n *Network, si int, mu float64) float64 {
	r := n.Segs[si].Radius
	return 8 * mu * n.SegmentLength(si) / (math.Pi * r * r * r * r)
}
