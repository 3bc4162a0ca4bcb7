package surrogate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rbcflow/internal/network"
)

func testY() *network.Network {
	n := network.YBifurcation(network.YParams{
		ParentRadius: 1, ChildRadius: 0.75, ParentLen: 5, ChildLen: 4, HalfAngle: math.Pi / 5,
	})
	n.SetFlow(0, 2)
	n.SetPressure(2, 0)
	n.SetPressure(3, 0)
	return n
}

func testTree(depth int) *network.Network {
	n := network.BinaryTree(network.TreeParams{Depth: depth, RootRadius: 1, RootLen: 5})
	n.SetFlow(0, 2)
	for _, term := range n.Terminals() {
		if term != 0 {
			n.SetPressure(term, 0)
		}
	}
	return n
}

func testHoneycomb() *network.Network {
	n, in, out := network.Honeycomb(network.HoneycombParams{Rows: 2, Cols: 3, Radius: 0.8, Edge: 4})
	n.SetFlow(in, 2)
	n.SetPressure(out, 0)
	return n
}

func TestMuEffProperties(t *testing.T) {
	rh := Rheology{MuPlasma: 1.3, MicronsPerUnit: 10}
	if got := rh.MuEff(1, 0); got != 1.3 {
		t.Fatalf("plasma-only viscosity: got %g, want MuPlasma 1.3", got)
	}
	// Monotone in haematocrit at several radii.
	for _, r := range []float64{0.2, 0.5, 1, 2, 5} {
		prev := rh.MuEff(r, 0)
		for h := 0.05; h <= 0.6; h += 0.05 {
			mu := rh.MuEff(r, h)
			if mu <= prev {
				t.Fatalf("MuEff not monotone in Hct at r=%g: mu(%g)=%g <= %g", r, h, mu, prev)
			}
			prev = mu
		}
	}
	// The classic FL minimum: a 20 µm tube (r=1 at 10 µm/unit) is less
	// viscous than a wide 200 µm tube at equal haematocrit.
	if narrow, wide := rh.MuEff(1, 0.45), rh.MuEff(10, 0.45); narrow >= wide {
		t.Fatalf("Fåhræus–Lindqvist effect missing: mu(20µm)=%g >= mu(200µm)=%g", narrow, wide)
	}
	// At the 45%-discharge reference, the relative viscosity must equal
	// mu45 by construction.
	d := 2 * 1 * 10.0
	mu45 := 6*math.Exp(-0.085*d) + 3.2 - 2.44*math.Exp(-0.06*math.Pow(d, 0.645))
	if got := rh.MuEff(1, 0.45) / 1.3; math.Abs(got-mu45) > 1e-12 {
		t.Fatalf("MuEff(r=1, 0.45)/MuPlasma = %g, want mu45 = %g", got, mu45)
	}
}

func TestTypedViscosityError(t *testing.T) {
	n := testY()
	for _, mu := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		_, err := network.SolveFlow(n, mu)
		var verr *network.ViscosityError
		if !errors.As(err, &verr) {
			t.Fatalf("SolveFlow(mu=%g): got %v, want *ViscosityError", mu, err)
		}
		if verr.Seg != -1 {
			t.Fatalf("scalar viscosity error should carry Seg=-1, got %d", verr.Seg)
		}
	}
	bad := []float64{1, math.NaN(), 1}
	if _, err := network.SolveFlowVisc(n, bad); err == nil {
		t.Fatal("SolveFlowVisc accepted a NaN segment viscosity")
	} else {
		var verr *network.ViscosityError
		if !errors.As(err, &verr) || verr.Seg != 1 {
			t.Fatalf("per-segment viscosity error: got %v", err)
		}
	}
	if _, err := network.SolveFlowVisc(n, []float64{1}); err == nil {
		t.Fatal("SolveFlowVisc accepted a mis-sized viscosity field")
	}
}

func TestSolveFlowShimMatchesVisc(t *testing.T) {
	n := testTree(3)
	a, err := network.SolveFlow(n, 1.7)
	if err != nil {
		t.Fatal(err)
	}
	visc := make([]float64, len(n.Segs))
	for i := range visc {
		visc[i] = 1.7
	}
	b, err := network.SolveFlowVisc(n, visc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.P {
		if a.P[i] != b.P[i] {
			t.Fatalf("node %d: shim pressure %g != visc pressure %g", i, a.P[i], b.P[i])
		}
	}
	for s := range a.Q {
		if a.Q[s] != b.Q[s] {
			t.Fatalf("segment %d: shim flow %g != visc flow %g", s, a.Q[s], b.Q[s])
		}
	}
}

// TestFixedPointConvergence is the tentpole acceptance test: the damped
// haematocrit⇄viscosity fixed point converges on every builder, and mass
// and RBC-flux conservation hold at the converged point to ≤1e-12.
func TestFixedPointConvergence(t *testing.T) {
	cases := []struct {
		name string
		net  *network.Network
	}{
		{"y", testY()},
		{"tree-d4", testTree(4)},
		{"honeycomb", testHoneycomb()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Solve(tc.net, Params{InletHct: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("fixed point did not converge: residual %g after %d iters", res.Residual, res.Iters)
			}
			if res.Residual > 1e-10 {
				t.Fatalf("converged residual %g exceeds tolerance", res.Residual)
			}
			if res.FlowImbalance > 1e-12 {
				t.Fatalf("mass conservation %g exceeds 1e-12", res.FlowImbalance)
			}
			if res.RBCImbalance > 1e-12 {
				t.Fatalf("RBC-flux conservation %g exceeds 1e-12", res.RBCImbalance)
			}
			// The effective viscosity must respond to the haematocrit field:
			// every perfused segment sits strictly above plasma, and a
			// segment's viscosity never exceeds the packed-cell clamp.
			for si, h := range res.Hct {
				if h > 0 && res.Mu[si] <= 1 {
					t.Fatalf("segment %d carries Hct %g but viscosity %g <= plasma", si, h, res.Mu[si])
				}
			}
			t.Logf("%s: %d iters, residual %.2e, mass %.2e, rbc %.2e",
				tc.name, res.Iters, res.Residual, res.FlowImbalance, res.RBCImbalance)
		})
	}
}

func TestObjectives(t *testing.T) {
	n := testY()
	res, err := Solve(n, Params{InletHct: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	drop, err := EvalObjective("pressure-drop", n, res)
	if err != nil || drop <= 0 {
		t.Fatalf("pressure-drop objective: %g, %v", drop, err)
	}
	vmax, err := EvalObjective("max-velocity", n, res)
	if err != nil || vmax <= 0 {
		t.Fatalf("max-velocity objective: %g, %v", vmax, err)
	}
	// The symmetric Y splits haematocrit evenly: outlet CV must be ~0.
	cv, err := EvalObjective("outlet-hct-cv", n, res)
	if err != nil {
		t.Fatal(err)
	}
	if cv > 1e-12 {
		t.Fatalf("symmetric Y outlet haematocrit CV should vanish, got %g", cv)
	}
	if _, err := EvalObjective("nope", n, res); err == nil {
		t.Fatal("unknown objective accepted")
	}
	for _, name := range ObjectiveNames() {
		if !ValidObjective(name) {
			t.Fatalf("ObjectiveNames entry %q not valid", name)
		}
	}
	if ValidObjective("nope") {
		t.Fatal("ValidObjective accepted garbage")
	}
}

// outletHctCVRef is the outlet-hct-cv objective with the drain test written
// as a TerminalInflow scan per segment: the reference EvalObjective must
// reproduce bit for bit.
func outletHctCVRef(n *network.Network, r *Result) float64 {
	deg := n.Degree()
	var hs []float64
	for si, s := range n.Segs {
		end := s.B
		if r.Flow.Q[si] < 0 {
			end = s.A
		}
		if deg[end] == 1 && r.Flow.TerminalInflow(n, end) < 0 {
			hs = append(hs, r.Hct[si])
		}
	}
	if len(hs) == 0 {
		return 0
	}
	var mean float64
	for _, h := range hs {
		mean += h
	}
	mean /= float64(len(hs))
	if mean == 0 {
		return 0
	}
	var varr float64
	for _, h := range hs {
		varr += (h - mean) * (h - mean)
	}
	return math.Sqrt(varr/float64(len(hs))) / mean
}

// randomTree grows a seeded random tree off an inlet stub at node 0. Each
// segment is oriented at random, so drains run both A→B and B→A; terminals
// are pressure outlets at random pressures, one in ten a capped dead end.
func randomTree(seed int64, nodes int) *network.Network {
	rng := rand.New(rand.NewSource(seed))
	n := &network.Network{}
	n.AddNode([3]float64{})
	n.AddNode([3]float64{2, 0, 0})
	n.AddSegment(0, 1, 1)
	for len(n.Nodes) < nodes {
		parent := 1 + rng.Intn(len(n.Nodes)-1)
		p := n.Nodes[parent].Pos
		c := n.AddNode([3]float64{p[0] + 1 + rng.Float64(), p[1] + 2*rng.Float64() - 1, p[2] + 2*rng.Float64() - 1})
		r := 0.3 + 0.7*rng.Float64()
		if rng.Intn(2) == 0 {
			n.AddSegment(parent, c, r)
		} else {
			n.AddSegment(c, parent, r)
		}
	}
	n.SetFlow(0, 2)
	for _, term := range n.Terminals() {
		if term != 0 && rng.Intn(10) != 0 {
			n.SetPressure(term, 0.5*rng.Float64())
		}
	}
	return n
}

func TestOutletHctCVMatchesReference(t *testing.T) {
	nets := map[string]*network.Network{"y": testY(), "tree-d6": testTree(6), "honeycomb": testHoneycomb()}
	for seed := int64(1); seed <= 4; seed++ {
		nets[fmt.Sprintf("random-%d", seed)] = randomTree(seed, 300)
	}
	for name, n := range nets {
		res, err := Solve(n, Params{InletHct: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvalObjective("outlet-hct-cv", n, res)
		if err != nil {
			t.Fatal(err)
		}
		if want := outletHctCVRef(n, res); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: outlet-hct-cv %v, reference %v", name, got, want)
		}
		// The builders are symmetric or single-outlet (CV 0); the random
		// trees must give the comparison something to compare.
		if strings.HasPrefix(name, "random") && got == 0 {
			t.Fatalf("%s: outlet-hct-cv vanished; the comparison is vacuous", name)
		}
	}
}
