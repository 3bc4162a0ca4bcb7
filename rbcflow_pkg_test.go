package rbcflow_test

import (
	"math"
	"testing"

	"rbcflow"
)

func TestPublicAPIShearFlow(t *testing.T) {
	cfg := rbcflow.Config{
		SphOrder: 4, Mu: 1, KappaB: 0.05, Dt: 0.05, MinSep: 0.05,
		Background:  func(x [3]float64) [3]float64 { return [3]float64{x[2], 0, 0} },
		CollisionOn: true,
		FMM:         rbcflow.FMMConfig{DirectBelow: 1 << 40},
	}
	cells := []*rbcflow.Cell{
		rbcflow.NewBiconcaveCell(4, 1, [3]float64{-2, 0, 0.4}),
		rbcflow.NewBiconcaveCell(4, 1, [3]float64{2, 0, -0.4}),
	}
	world := rbcflow.Run(1, rbcflow.SKX(), func(c *rbcflow.Comm) {
		sim := rbcflow.NewSimulation(c, cfg, cells, nil, nil)
		sim.Step(c)
		cen := sim.Centroids()
		if !(cen[0][0] > -2 && cen[1][0] < 2) {
			t.Errorf("shear advection wrong: %v", cen)
		}
	})
	if world.VirtualTime() <= 0 {
		t.Fatal("no virtual time recorded")
	}
}

func TestPublicAPIVesselConstruction(t *testing.T) {
	prm := rbcflow.DefaultBIEParams()
	prm.QuadNodes = 7
	surf := rbcflow.TorusVessel(0, 3, 1, prm)
	if surf.F.NumPatches() != 24 {
		t.Fatalf("torus patches %d", surf.F.NumPatches())
	}
	want := 2 * math.Pi * math.Pi * 3
	if v := rbcflow.VesselVolume(surf); math.Abs(v-want) > 0.05*want {
		t.Fatalf("torus volume %v want %v", v, want)
	}
	cells := rbcflow.Fill(surf, rbcflow.FillParams{
		SphOrder: 4, Spacing: 1.3, Radius: 0.35, WallMargin: 0.15, MaxCells: 6, Seed: 1,
	})
	if len(cells) == 0 {
		t.Fatal("fill produced no cells")
	}
	if vf := rbcflow.VolumeFraction(surf, cells); vf <= 0 || vf > 0.5 {
		t.Fatalf("volume fraction %v", vf)
	}
	g := rbcflow.WallInflow(surf, 0, math.Pi/2, 1)
	if len(g) != 3*len(surf.Pts) {
		t.Fatalf("inflow BC length %d", len(g))
	}
}

func TestPublicAPICapsuleAndTrefoil(t *testing.T) {
	prm := rbcflow.DefaultBIEParams()
	prm.QuadNodes = 7
	cap0 := rbcflow.CapsuleVessel(0, 2, [3]float64{1, 1, 1}, prm)
	want := 4.0 / 3 * math.Pi * 8
	if v := rbcflow.VesselVolume(cap0); math.Abs(v-want) > 0.05*want {
		t.Fatalf("capsule volume %v want %v", v, want)
	}
	tre := rbcflow.TrefoilVessel(0, 1, 0.6, prm)
	if tre.F.NumPatches() != 48 {
		t.Fatalf("trefoil patches %d", tre.F.NumPatches())
	}
}

func TestPublicAPINetworkPipeline(t *testing.T) {
	net := rbcflow.YBifurcation(rbcflow.YParams{
		ParentRadius: 1, ParentLen: 5, ChildLen: 4, HalfAngle: math.Pi / 5,
	})
	net.SetFlow(0, 2)
	net.SetPressure(2, 0)
	net.SetPressure(3, 0)
	flow, err := rbcflow.SolveNetworkFlow(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	if imb := flow.MaxImbalance(net); imb > 1e-10 {
		t.Fatalf("junction imbalance %g", imb)
	}
	H := rbcflow.NetworkHaematocrit(net, flow, rbcflow.HaematocritParams{Inlet: 0.12, Gamma: 1.4})
	prm := rbcflow.DefaultBIEParams()
	prm.QuadNodes = 5
	surf, geom, err := rbcflow.NetworkVessel(net, 0, rbcflow.TubeParams{Order: 6, AxialLen: 3.5}, prm)
	if err != nil {
		t.Fatal(err)
	}
	if v, want := rbcflow.VesselVolume(surf), geom.AnalyticVolume(); math.Abs(v-want) > 0.05*want {
		t.Fatalf("network volume %v want %v", v, want)
	}
	g := rbcflow.NetworkInflow(surf, geom, flow)
	if len(g) != 3*len(surf.Pts) {
		t.Fatalf("network BC length %d", len(g))
	}
	cells := rbcflow.SeedNetworkCells(net, H, rbcflow.SeedParams{
		SphOrder: 4, CellRadius: 0.3, WallMargin: 0.12, MaxCells: 4, Seed: 11,
	})
	if len(cells) == 0 {
		t.Fatal("no cells seeded")
	}
}

func TestMachineModels(t *testing.T) {
	if rbcflow.SKX().ComputeScale >= rbcflow.KNL().ComputeScale {
		t.Fatal("KNL cores must be slower than SKX cores")
	}
}

func TestPublicAPIScenarioAndCampaign(t *testing.T) {
	names := rbcflow.Scenarios()
	if len(names) < 8 {
		t.Fatalf("too few scenarios registered: %v", names)
	}
	b, err := rbcflow.BuildScenario("shear", rbcflow.ScenarioParams{})
	if err != nil {
		t.Fatal(err)
	}
	outcome, err := rbcflow.ExecuteScenario(b, rbcflow.RunOptions{Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Steps != 1 || len(outcome.Centroids) != 2 {
		t.Fatalf("unexpected outcome: %+v", outcome)
	}
	if outcome.Ledger.VirtualTime <= 0 {
		t.Fatal("no virtual time in ledger")
	}
}
