// Package experiments implements the runners that regenerate every table
// and figure of the paper's evaluation (§5), shared by the cmd/ harnesses
// and the top-level benchmarks. Problem sizes are scaled to a single
// machine; the virtual-time ledger of package par supplies the
// distributed-machine timings (see DESIGN.md).
package experiments

import (
	"fmt"
	"io"
	"math"

	"rbcflow/internal/bie"
	"rbcflow/internal/core"
	"rbcflow/internal/kernels"
	"rbcflow/internal/par"
	"rbcflow/internal/rbc"
	"rbcflow/internal/scenario"
	"rbcflow/internal/vessel"
)

// ScalingResult is one row of the Fig. 4/5/6 tables.
type ScalingResult struct {
	Cores       int
	TotalTime   float64
	ColBie      float64 // COL + BIE-solve
	Breakdown   map[string]float64
	VolFraction float64
	NumCells    int
	NumPatches  int
	Contacts    int
}

// scalingCase builds the torus-channel scenario at the given refinement
// level and cell count and runs `steps` coupled time steps on p ranks.
func scalingCase(p int, machine par.Machine, level, maxCells, steps int) ScalingResult {
	b, err := scenario.Build("torus", scenario.Params{Level: level, MaxCells: maxCells, Seed: 3})
	if err != nil {
		panic(err)
	}
	res := ScalingResult{Cores: p, NumCells: len(b.Cells), NumPatches: b.Surf.F.NumPatches()}
	res.VolFraction = vessel.VolumeFraction(b.Surf, b.Cells)
	world := par.Run(p, machine, func(c *par.Comm) {
		sim := core.New(c, b.Config, b.Cells, b.Surf, b.G)
		for s := 0; s < steps; s++ {
			st := sim.Step(c)
			res.Contacts += st.Contacts
		}
	})
	res.TotalTime = world.VirtualTime()
	res.Breakdown = world.TimeByLabel()
	res.ColBie = res.Breakdown["COL"] + res.Breakdown["BIE-solve"]
	return res
}

// StrongScaling reproduces Fig. 4: a fixed problem on growing rank counts.
func StrongScaling(w io.Writer, ranks []int, level, cells, steps int) []ScalingResult {
	var out []ScalingResult
	fmt.Fprintf(w, "Fig. 4 — strong scaling (torus vessel, %d cells, level-%d patches, %d steps, SKX model)\n", cells, level, steps)
	fmt.Fprintf(w, "%6s %10s %8s %12s %8s %8s %8s %8s %8s\n",
		"cores", "total(s)", "eff", "COL+BIE(s)", "eff", "COL", "BIEslv", "BIEFMM", "OthFMM")
	var t0, cb0 float64
	for _, p := range ranks {
		r := scalingCase(p, par.SKX(), level, cells, steps)
		if p == ranks[0] {
			t0, cb0 = r.TotalTime*float64(p), r.ColBie*float64(p)
		}
		eff := t0 / (r.TotalTime * float64(p))
		effCB := cb0 / (r.ColBie * float64(p))
		fmt.Fprintf(w, "%6d %10.3f %8.2f %12.3f %8.2f %8.3f %8.3f %8.3f %8.3f\n",
			p, r.TotalTime, eff, r.ColBie, effCB,
			r.Breakdown["COL"], r.Breakdown["BIE-solve"], r.Breakdown["BIE-FMM"], r.Breakdown["Other-FMM"])
		out = append(out, r)
	}
	return out
}

// WeakScaling reproduces Fig. 5 (SKX) / Fig. 6 (KNL): grain per rank fixed,
// geometry refined and refilled per doubling (§5.2).
func WeakScaling(w io.Writer, machine par.Machine, ranks []int, cellsPerRank, steps int) []ScalingResult {
	var out []ScalingResult
	fmt.Fprintf(w, "Weak scaling (%s model, %d cells/rank, %d steps)\n", machine.Name, cellsPerRank, steps)
	fmt.Fprintf(w, "%6s %8s %10s %8s %12s %8s %10s %10s\n",
		"cores", "cells", "volfrac", "#col/#c", "total(s)", "eff", "COL+BIE(s)", "eff")
	var t0, cb0 float64
	for _, p := range ranks {
		level := 0
		for l := 1; l < p; l *= 4 {
			level++
		}
		r := scalingCase(p, machine, level, cellsPerRank*p, steps)
		if p == ranks[0] {
			t0, cb0 = r.TotalTime, r.ColBie
		}
		colFrac := float64(r.Contacts) / math.Max(1, float64(r.NumCells*steps))
		fmt.Fprintf(w, "%6d %8d %9.1f%% %8.2f %12.3f %8.2f %10.3f %10.2f\n",
			p, r.NumCells, 100*r.VolFraction, colFrac, r.TotalTime,
			t0/r.TotalTime, r.ColBie, cb0/r.ColBie)
		out = append(out, r)
	}
	return out
}

// Fig9Row is one point of the boundary-solver convergence study.
type Fig9Row struct {
	Level     int
	PatchSize float64
	MaxRelErr float64
	Iters     int
}

// BoundaryConvergence reproduces Fig. 9: solve an interior Stokes problem
// with an analytic exterior-Stokeslet solution on a cubed sphere, refine,
// and measure the max relative on-surface velocity error at non-collocation
// points.
func BoundaryConvergence(w io.Writer, levels []int) []Fig9Row {
	fmt.Fprintln(w, "Fig. 9 — boundary solver convergence (interior Stokes, analytic BC)")
	fmt.Fprintf(w, "%6s %12s %14s %6s\n", "level", "patch size", "max rel err", "iters")
	srcs := [][3]float64{{2.5, 0.3, -0.1}, {-2.2, 1.1, 0.7}, {0.4, -2.8, 1.3}}
	fs := [][3]float64{{1, 0.5, -0.2}, {-0.3, 0.8, 1.1}, {0.6, -1.0, 0.4}}
	an := func(x [3]float64) [3]float64 {
		var u [3]float64
		for i := range srcs {
			kernels.SingleLayerVel(u[:], 1, x, srcs[i], fs[i][:], 1)
		}
		return u
	}
	var rows []Fig9Row
	for _, level := range levels {
		cb, err := scenario.Build("cubesphere", scenario.Params{Level: level})
		if err != nil {
			panic(err)
		}
		surf := cb.Surf
		f := surf.F
		row := Fig9Row{Level: level, PatchSize: surf.L[0]}
		par.Run(1, par.SKX(), func(c *par.Comm) {
			// Small verification surface: the exact direct-summation
			// far-field backend replaces the FMM outright.
			sv := bie.NewWallOperator(c, surf, bie.WithFarField(bie.DirectFarField()))
			rhs := make([]float64, surf.NumUnknowns())
			var gmax float64
			for k := range surf.Pts {
				g := an(surf.Pts[k])
				copy(rhs[3*k:3*k+3], g[:])
				for d := 0; d < 3; d++ {
					gmax = math.Max(gmax, math.Abs(g[d]))
				}
			}
			phi, res := bie.Solve(c, sv, rhs, nil, 1e-6, 80)
			row.Iters = res.Iterations
			var maxErr float64
			for pid := 0; pid < f.NumPatches(); pid += int(math.Max(1, float64(f.NumPatches()/12))) {
				for _, uv := range [][2]float64{{0.37, -0.21}, {-0.55, 0.63}} {
					x := f.Patches[pid].Eval(uv[0], uv[1])
					got := sv.OnSurfaceVelocity(c, phi, pid, uv[0], uv[1])
					want := an(x)
					for d := 0; d < 3; d++ {
						maxErr = math.Max(maxErr, math.Abs(got[d]-want[d]))
					}
				}
			}
			row.MaxRelErr = maxErr / gmax
		})
		fmt.Fprintf(w, "%6d %12.4f %14.3e %6d\n", row.Level, row.PatchSize, row.MaxRelErr, row.Iters)
		rows = append(rows, row)
	}
	return rows
}

// Fig11Row is one point of the time-step convergence study.
type Fig11Row struct {
	Steps       int
	Dt          float64
	CentroidErr float64
}

// ShearConvergence reproduces Fig. 11: two cells in shear flow; the
// centroid error at T vs a fine-Δt reference converges at O(Δt).
func ShearConvergence(w io.Writer, order int, T float64, stepCounts []int) []Fig11Row {
	fmt.Fprintf(w, "Fig. 11 — time-stepping convergence (shear, spherical harmonic order %d)\n", order)
	fmt.Fprintf(w, "%8s %10s %14s\n", "steps", "dt", "centroid err")
	run := func(nsteps int) [2][3]float64 {
		b, err := scenario.Build("shear", scenario.Params{SphOrder: order, Dt: T / float64(nsteps)})
		if err != nil {
			panic(err)
		}
		var cen [2][3]float64
		par.Run(1, par.SKX(), func(c *par.Comm) {
			sim := core.New(c, b.Config, b.Cells, nil, nil)
			for s := 0; s < nsteps; s++ {
				sim.Step(c)
			}
			cs := sim.Centroids()
			cen[0], cen[1] = cs[0], cs[1]
		})
		return cen
	}
	ref := run(stepCounts[len(stepCounts)-1] * 4)
	var rows []Fig11Row
	for _, n := range stepCounts {
		got := run(n)
		var err float64
		for i := 0; i < 2; i++ {
			for d := 0; d < 3; d++ {
				err = math.Max(err, math.Abs(got[i][d]-ref[i][d]))
			}
		}
		row := Fig11Row{Steps: n, Dt: T / float64(n), CentroidErr: err}
		fmt.Fprintf(w, "%8d %10.4f %14.3e\n", n, row.Dt, err)
		rows = append(rows, row)
	}
	return rows
}

// SedimentationResult summarizes the Fig. 7 study.
type SedimentationResult struct {
	NumCells       int
	VolFrac0       float64
	LowerVolFrac0  float64
	LowerVolFrac1  float64
	MeanZ0, MeanZ1 float64
}

// Sedimentation reproduces Fig. 7 (scaled): cells settle in a capsule; the
// lower-half volume fraction rises as they pack.
func Sedimentation(w io.Writer, maxCells, steps int) SedimentationResult {
	b, err := scenario.Build("capsule", scenario.Params{MaxCells: maxCells, Seed: 7})
	if err != nil {
		panic(err)
	}
	res := SedimentationResult{NumCells: len(b.Cells)}
	res.VolFrac0 = vessel.VolumeFraction(b.Surf, b.Cells)
	half := vessel.Volume(b.Surf) / 2
	lower := func(cs []*rbc.Cell) float64 {
		var v float64
		for _, c := range cs {
			if c.Centroid()[2] < 0 {
				v += c.Volume()
			}
		}
		return v / half
	}
	res.LowerVolFrac0 = lower(b.Cells)
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sim := core.New(c, b.Config, b.Cells, b.Surf, nil)
		for _, cell := range sim.Cells {
			res.MeanZ0 += cell.Centroid()[2]
		}
		res.MeanZ0 /= float64(len(sim.Cells))
		for s := 0; s < steps; s++ {
			sim.Step(c)
		}
		for _, cell := range sim.Cells {
			res.MeanZ1 += cell.Centroid()[2]
		}
		res.MeanZ1 /= float64(len(sim.Cells))
		res.LowerVolFrac1 = lower(sim.Cells)
	})
	fmt.Fprintf(w, "Fig. 7 — sedimentation: %d cells, volume fraction %.1f%%\n", res.NumCells, 100*res.VolFrac0)
	fmt.Fprintf(w, "  mean height %+.4f -> %+.4f\n", res.MeanZ0, res.MeanZ1)
	fmt.Fprintf(w, "  lower-half volume fraction %.1f%% -> %.1f%%\n", 100*res.LowerVolFrac0, 100*res.LowerVolFrac1)
	return res
}
