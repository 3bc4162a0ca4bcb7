// Sedimentation: cells settling under gravity in a closed capsule — the
// high-volume-fraction study of paper Fig. 7 (47% initial volume fraction
// rising to ~55% in the lower half as cells pack).
package main

import (
	"fmt"

	"rbcflow"
)

func main() {
	prm := rbcflow.DefaultBIEParams()
	prm.QuadNodes = 7
	prm.NearFactor = 0.8
	surf := rbcflow.CapsuleVessel(0, 2.2, [3]float64{1, 1, 1.3}, prm)
	cells := rbcflow.Fill(surf, rbcflow.FillParams{
		SphOrder: 4, Spacing: 1.0, Radius: 0.42, WallMargin: 0.12, MaxCells: 12, Seed: 7,
	})
	fmt.Printf("capsule: %d cells, initial volume fraction %.1f%%\n",
		len(cells), 100*rbcflow.VolumeFraction(surf, cells))

	cfg := rbcflow.Config{
		SphOrder: 4, Mu: 1, KappaB: 0.05, Dt: 0.02, MinSep: 0.06,
		Gravity:     [3]float64{0, 0, -1},
		CollisionOn: true,
		FMM:         rbcflow.FMMConfig{Order: 4, LeafSize: 64, DirectBelow: 1 << 24},
		GMRESMax:    30, GMRESTol: 1e-3,
	}
	rbcflow.Run(1, rbcflow.SKX(), func(c *rbcflow.Comm) {
		sim := rbcflow.NewSimulation(c, cfg, cells, surf, nil)
		var meanZ0 float64
		for _, cen := range sim.Centroids() {
			meanZ0 += cen[2]
		}
		meanZ0 /= float64(len(cells))
		for step := 1; step <= 4; step++ {
			st := sim.Step(c)
			var meanZ float64
			for _, cen := range sim.Centroids() {
				meanZ += cen[2]
			}
			meanZ /= float64(len(cells))
			fmt.Printf("step %d: mean cell height %+.4f (start %+.4f), contacts %d\n",
				step, meanZ, meanZ0, st.Contacts)
		}
	})
}
