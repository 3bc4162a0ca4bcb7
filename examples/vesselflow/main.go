// Vesselflow: red blood cells flowing through a closed vascular channel (a
// torus, the scaled-down stand-in for the Fig. 1 network), driven by a
// tangential wall "conveyor" window — the inflow/outflow mechanism at zero
// net flux. Reports volume fraction and per-step timing breakdown.
package main

import (
	"fmt"
	"math"

	"rbcflow"
)

func main() {
	prm := rbcflow.DefaultBIEParams()
	prm.QuadNodes = 7
	prm.NearFactor = 0.8
	surf := rbcflow.TorusVessel(0, 3, 1, prm)
	cells := rbcflow.Fill(surf, rbcflow.FillParams{
		SphOrder: 4, Spacing: 1.3, Radius: 0.35, WallMargin: 0.15, MaxCells: 8, Seed: 42,
	})
	fmt.Printf("torus vessel: %d patches, %d cells, volume fraction %.1f%%\n",
		surf.F.NumPatches(), len(cells), 100*rbcflow.VolumeFraction(surf, cells))

	g := rbcflow.WallInflow(surf, 0, math.Pi/2, 2.0)
	cfg := rbcflow.Config{
		SphOrder: 4, Mu: 1, KappaB: 0.05, Dt: 0.02, MinSep: 0.06,
		CollisionOn: true,
		FMM:         rbcflow.FMMConfig{Order: 4, LeafSize: 64, DirectBelow: 1 << 24},
		GMRESMax:    30, GMRESTol: 1e-3,
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
	for _, k := range []string{"COL", "BIE-solve", "BIE-FMM", "Other-FMM", "Other"} {
		fmt.Printf("  %-10s %.3fs\n", k, world.TimeByLabel()[k])
	}
}
