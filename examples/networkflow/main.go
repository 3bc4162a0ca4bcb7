// Networkflow: red blood cells stepping through a Y-bifurcation — the
// smallest end-to-end vascular-network scenario. The reduced-order network
// solver sets per-branch flows, plasma skimming sets per-branch
// haematocrit, the swept-tube generator builds the watertight wall surface,
// and the boundary-integral simulation advances haematocrit-seeded cells
// under the solved inlet/outlet profiles.
package main

import (
	"fmt"
	"math"

	"rbcflow"
)

func main() {
	// A Y-bifurcation with Murray-law children, flow-driven at the inlet.
	net := rbcflow.YBifurcation(rbcflow.YParams{
		ParentRadius: 1, ParentLen: 5, ChildLen: 4, HalfAngle: math.Pi / 5,
	})
	net.SetFlow(0, 2.0)
	net.SetPressure(2, 0)
	net.SetPressure(3, 0)

	flow, err := rbcflow.SolveNetworkFlow(net, 1)
	if err != nil {
		panic(err)
	}
	H := rbcflow.NetworkHaematocrit(net, flow, rbcflow.HaematocritParams{Inlet: 0.12, Gamma: 1.4})
	fmt.Printf("Y-bifurcation: junction imbalance %.2e\n", flow.MaxImbalance(net))
	for si := range net.Segs {
		fmt.Printf("  segment %d: Q=%.4f  H=%.4f\n", si, flow.Q[si], H[si])
	}

	prm := rbcflow.DefaultBIEParams()
	prm.QuadNodes = 5
	prm.NearFactor = 0.6
	surf, geom, err := rbcflow.NetworkVessel(net, 0, rbcflow.TubeParams{Order: 6, AxialLen: 3.5}, prm)
	if err != nil {
		panic(err)
	}
	g := rbcflow.NetworkInflow(surf, geom, flow)
	cells := rbcflow.SeedNetworkCells(net, H, rbcflow.SeedParams{
		SphOrder: 4, CellRadius: 0.3, WallMargin: 0.12, MaxCells: 6, Seed: 11,
	})
	fmt.Printf("surface: %d patches, volume %.3f (tube-sum reference %.3f); %d cells\n",
		surf.F.NumPatches(), rbcflow.VesselVolume(surf), geom.AnalyticVolume(), len(cells))

	cfg := rbcflow.Config{
		SphOrder: 4, Mu: 1, KappaB: 0.05, Dt: 0.02, MinSep: 0.06,
		CollisionOn: true,
		BIEParams:   prm,
		FMM:         rbcflow.FMMConfig{Order: 4, LeafSize: 64, DirectBelow: 1 << 24},
		GMRESMax:    25, GMRESTol: 1e-3,
	}
	world := rbcflow.Run(2, rbcflow.SKX(), func(c *rbcflow.Comm) {
		sim := rbcflow.NewSimulation(c, cfg, cells, surf, g)
		for step := 1; step <= 3; step++ {
			st := sim.Step(c)
			if c.Rank() == 0 {
				fmt.Printf("step %d: GMRES %d iters, %d contacts\n", step, st.GMRESIters, st.Contacts)
			}
		}
	})
	fmt.Printf("modeled wall time: %.3fs\n", world.VirtualTime())
}
