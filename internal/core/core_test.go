package core

import (
	"math"
	"testing"

	"rbcflow/internal/bie"
	"rbcflow/internal/forest"
	"rbcflow/internal/par"
	"rbcflow/internal/patch"
	"rbcflow/internal/rbc"
)

func shearConfig() Config {
	return Config{
		SphOrder: 4, Mu: 1, KappaB: 0.05, Dt: 0.05, MinSep: 0.05,
		Background:  func(x [3]float64) [3]float64 { return [3]float64{x[2], 0, 0} },
		CollisionOn: true,
		FMM:         bie.FMMConfig{DirectBelow: 1 << 40},
	}
}

func TestShearStepMovesCellsApart(t *testing.T) {
	// Two cells in shear flow (Fig. 10 setup): cells advect with the shear
	// and remain collision-free, surfaces stay bounded.
	for _, p := range []int{1, 2} {
		par.Run(p, par.SKX(), func(c *par.Comm) {
			cells := []*rbc.Cell{
				rbc.NewBiconcaveCell(4, 1, [3]float64{-1.2, 0, 0.3}, nil),
				rbc.NewBiconcaveCell(4, 1, [3]float64{1.2, 0, -0.3}, nil),
			}
			sim := New(c, shearConfig(), cells, nil, nil)
			v0 := sim.TotalCellVolume(c)
			for step := 0; step < 3; step++ {
				sim.Step(c)
			}
			v1 := sim.TotalCellVolume(c)
			if math.Abs(v1-v0) > 0.15*v0 {
				t.Errorf("p=%d: volume drifted %v -> %v", p, v0, v1)
			}
			// The upper cell (z>0) moves +x, the lower -x.
			cens := sim.Centroids()
			all := par.Allgatherv(c, cens)
			var flat [][3]float64
			for _, part := range all {
				flat = append(flat, part...)
			}
			if c.Rank() == 0 {
				if !(flat[0][0] > -1.2 && flat[1][0] < 1.2) {
					t.Errorf("p=%d: shear did not advect cells: %v", p, flat)
				}
			}
		})
	}
}

func TestStepDeterministicAcrossRanks(t *testing.T) {
	// The same physical system must evolve identically on 1 and 2 ranks.
	run := func(p int) [][3]float64 {
		var result [][3]float64
		par.Run(p, par.SKX(), func(c *par.Comm) {
			cells := []*rbc.Cell{
				rbc.NewSphereCell(4, 0.8, [3]float64{-1.5, 0, 0.2}),
				rbc.NewSphereCell(4, 0.8, [3]float64{1.5, 0, -0.2}),
			}
			cfg := shearConfig()
			cfg.CollisionOn = false
			sim := New(c, cfg, cells, nil, nil)
			sim.Step(c)
			cens := sim.Centroids()
			all := par.Allgatherv(c, cens)
			if c.Rank() == 0 {
				for _, part := range all {
					result = append(result, part...)
				}
			}
		})
		return result
	}
	a := run(1)
	b := run(2)
	if len(a) != len(b) {
		t.Fatalf("length mismatch %d vs %d", len(a), len(b))
	}
	for i := range a {
		for d := 0; d < 3; d++ {
			if math.Abs(a[i][d]-b[i][d]) > 1e-9 {
				t.Fatalf("rank-count dependence at cell %d dim %d: %v vs %v", i, d, a[i][d], b[i][d])
			}
		}
	}
}

func TestVesselStepRuns(t *testing.T) {
	// One cell inside a spherical container with no-slip walls: a full
	// coupled step (BIE solve + cell update + collision machinery).
	mk := func(fix int, sign float64) *patch.Patch {
		return patch.FromFunc(8, func(u, v float64) [3]float64 {
			var pv [3]float64
			pv[fix] = sign
			pv[(fix+1)%3] = u * sign
			pv[(fix+2)%3] = v
			n := patch.Norm(pv)
			r := 3.0
			return [3]float64{r * pv[0] / n, r * pv[1] / n, r * pv[2] / n}
		})
	}
	var roots []*patch.Patch
	for fix := 0; fix < 3; fix++ {
		roots = append(roots, mk(fix, 1), mk(fix, -1))
	}
	f := forest.NewUniform(roots, 0)
	surf := bie.NewSurface(f, bie.Params{QuadNodes: 7, NearFactor: 0.8})
	par.Run(2, par.SKX(), func(c *par.Comm) {
		cells := []*rbc.Cell{rbc.NewBiconcaveCell(4, 0.8, [3]float64{0.5, 0, 0}, nil)}
		cfg := Config{
			SphOrder: 4, Mu: 1, KappaB: 0.05, Dt: 0.02, MinSep: 0.05,
			Gravity:     [3]float64{0, 0, -0.5},
			CollisionOn: true,
			FMM:         bie.FMMConfig{DirectBelow: 1 << 40},
			GMRESMax:    30,
		}
		sim := New(c, cfg, cells, surf, nil)
		st := sim.Step(c)
		if st.GMRESIters == 0 {
			t.Error("boundary solve did not run")
		}
		// The cell sank a little and stayed inside.
		if c.Rank() == 0 && len(sim.Cells) > 0 {
			cen := sim.Cells[0].Centroid()
			if cen[2] >= 0 {
				t.Errorf("gravity did not sink the cell: %v", cen)
			}
			if r := math.Sqrt(cen[0]*cen[0] + cen[1]*cen[1] + cen[2]*cen[2]); r > 3 {
				t.Errorf("cell escaped the container: %v", cen)
			}
		}
	})
}

func TestOnStepHookAndStepCount(t *testing.T) {
	var hookSteps []int
	cfg := shearConfig()
	cfg.OnStep = func(c *par.Comm, s *Simulation, step int, st StepStats) {
		// Hooks may call collectives: every rank participates.
		v := s.TotalCellVolume(c)
		if c.Rank() == 0 {
			if v <= 0 {
				t.Errorf("hook saw nonpositive volume %v", v)
			}
			hookSteps = append(hookSteps, step)
		}
	}
	par.Run(2, par.SKX(), func(c *par.Comm) {
		cells := []*rbc.Cell{
			rbc.NewSphereCell(4, 0.8, [3]float64{-1.5, 0, 0.2}),
			rbc.NewSphereCell(4, 0.8, [3]float64{1.5, 0, -0.2}),
		}
		sim := New(c, cfg, cells, nil, nil)
		sim.StepCount = 10 // as after a checkpoint restore
		for i := 0; i < 3; i++ {
			sim.Step(c)
		}
		if sim.StepCount != 13 {
			t.Errorf("StepCount %d want 13", sim.StepCount)
		}
	})
	want := []int{11, 12, 13}
	if len(hookSteps) != len(want) {
		t.Fatalf("hook fired %d times, want %d", len(hookSteps), len(want))
	}
	for i := range want {
		if hookSteps[i] != want[i] {
			t.Fatalf("hook steps %v want %v", hookSteps, want)
		}
	}
}

func TestExportImportStateRoundTrip(t *testing.T) {
	// ExportCells must return the full global list, identical on every
	// rank count, and a sim rebuilt from exported state must continue
	// exactly like the original.
	mkCells := func() []*rbc.Cell {
		return []*rbc.Cell{
			rbc.NewSphereCell(4, 0.8, [3]float64{-1.5, 0, 0.2}),
			rbc.NewSphereCell(4, 0.8, [3]float64{1.5, 0, -0.2}),
			rbc.NewSphereCell(4, 0.8, [3]float64{0, 1.5, 0}),
		}
	}
	cfg := shearConfig()
	cfg.CollisionOn = false

	// Reference: 2 uninterrupted steps on 2 ranks.
	var ref [][3]float64
	par.Run(2, par.SKX(), func(c *par.Comm) {
		sim := New(c, cfg, mkCells(), nil, nil)
		sim.Step(c)
		sim.Step(c)
		all := par.Allgatherv(c, sim.Centroids())
		if c.Rank() == 0 {
			for _, part := range all {
				ref = append(ref, part...)
			}
		}
	})

	// Interrupted: 1 step, export on every rank, rebuild, 1 more step.
	var got [][3]float64
	par.Run(2, par.SKX(), func(c *par.Comm) {
		sim := New(c, cfg, mkCells(), nil, nil)
		sim.Step(c)
		exported := sim.ExportCells(c)
		if len(exported) != 3 {
			t.Errorf("rank %d: exported %d cells, want 3", c.Rank(), len(exported))
		}
		if phi := sim.ExportPhi(c); phi != nil {
			t.Errorf("free-space sim exported phi: %v", phi)
		}
		sim2 := New(c, cfg, exported, nil, nil)
		sim2.RestorePhi(c, nil) // no-op without a surface
		sim2.Step(c)
		all := par.Allgatherv(c, sim2.Centroids())
		if c.Rank() == 0 {
			for _, part := range all {
				got = append(got, part...)
			}
		}
	})

	if len(ref) != len(got) {
		t.Fatalf("cell counts differ: %d vs %d", len(ref), len(got))
	}
	for i := range ref {
		for d := 0; d < 3; d++ {
			if ref[i][d] != got[i][d] {
				t.Fatalf("cell %d dim %d: %.17g != %.17g (export/import not bit-identical)",
					i, d, ref[i][d], got[i][d])
			}
		}
	}
}
