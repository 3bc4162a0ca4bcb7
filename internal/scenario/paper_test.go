package scenario

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rbcflow/internal/bie"
	"rbcflow/internal/kernels"
	"rbcflow/internal/par"
	"rbcflow/internal/rbc"
)

// The paper's §5 studies, each through the code a user runs: the scaling
// figures (4–6) are campaigns over the "ranks" axis (EXPERIMENTS.md lists
// the commands), and the verification figures (7, 9, 11) are the tests
// below, which assert what the studies' tables printed.

// strongScaling runs the Fig. 4 ladder once as a campaign, ranks = 1, 2 on
// a 4-cell torus, and hands the manifest and run log to both tests below.
var strongScaling struct {
	once sync.Once
	m    *Manifest
	log  string
	err  error
}

func strongScalingCampaign(t *testing.T) (*Manifest, string) {
	t.Helper()
	strongScaling.once.Do(func() {
		cfg := &CampaignConfig{
			Scenarios: []string{"torus"}, Steps: 1, Workers: 1,
			Sweep: map[string][]float64{"ranks": {1, 2}, "max_cells": {4}, "seed": {3}},
		}
		var log strings.Builder
		strongScaling.m, strongScaling.err = RunCampaignContext(context.Background(), cfg, t.TempDir(), &log)
		strongScaling.log = log.String()
	})
	if strongScaling.err != nil {
		t.Fatal(strongScaling.err)
	}
	return strongScaling.m, strongScaling.log
}

// TestStrongScalingCampaign pins the Fig. 4 ladder as a campaign: "ranks"
// sweeps RunSpec.Ranks, every rank count is one run, and the rank count
// moves no observable.
func TestStrongScalingCampaign(t *testing.T) {
	m, _ := strongScalingCampaign(t)
	if len(m.Runs) != 2 {
		t.Fatalf("want one run per rank count, got %d", len(m.Runs))
	}
	for i, r := range m.Runs {
		if want := fmt.Sprintf("torus_maxcells4_ranks%d_seed3", i+1); r.ID != want {
			t.Errorf("run %d: id %q, want %q", i, r.ID, want)
		}
		if r.Status != "ok" || r.NumCells != 4 {
			t.Fatalf("%s: status %s (%s), %d cells", r.ID, r.Status, r.Error, r.NumCells)
		}
	}
	a, b := m.Runs[0].Outcome.Rows, m.Runs[1].Outcome.Rows
	if len(a) != len(b) {
		t.Fatalf("rows: %d at 1 rank, %d at 2", len(a), len(b))
	}
	for i := range a {
		if a[i].NumCells != b[i].NumCells || a[i].Contacts != b[i].Contacts {
			t.Errorf("row %d: cells/contacts %d/%d at 1 rank, %d/%d at 2",
				i, a[i].NumCells, a[i].Contacts, b[i].NumCells, b[i].Contacts)
		}
		for _, v := range [][2]float64{
			{a[i].MeanX, b[i].MeanX}, {a[i].MeanY, b[i].MeanY}, {a[i].MeanZ, b[i].MeanZ},
			{a[i].CellVolume, b[i].CellVolume}, {a[i].VolumeErr, b[i].VolumeErr},
		} {
			if math.Abs(v[0]-v[1]) > 1e-12 {
				t.Errorf("row %d: %v at 1 rank, %v at 2", i, v[0], v[1])
			}
		}
	}
}

// TestScalingCampaignBreakdown checks that every run of the Fig. 4 ladder
// carries the COL / BIE-solve / BIE-FMM / Other-FMM / Other breakdown the
// figure plots, in its ledger and in its log line, and a volume fraction.
func TestScalingCampaignBreakdown(t *testing.T) {
	m, log := strongScalingCampaign(t)
	if len(m.Runs) == 0 {
		t.Fatal("campaign made no runs")
	}
	for _, r := range m.Runs {
		if r.Status != "ok" {
			t.Fatalf("%s: status %s (%s)", r.ID, r.Status, r.Error)
		}
		for _, k := range []string{"BIE-solve", "Other"} {
			if r.Outcome.Ledger.TimeByLabel[k] <= 0 {
				t.Errorf("%s: no %s time in the ledger: %v", r.ID, k, r.Outcome.Ledger.TimeByLabel)
			}
		}
		if vf := r.Outcome.VolFraction; vf <= 0 || vf > 0.6 {
			t.Errorf("%s: volume fraction %v", r.ID, vf)
		}
	}
	for _, s := range []string{"volume fraction", "COL ", "BIE-solve ", "BIE-FMM ", "Other-FMM ", "Other "} {
		if !strings.Contains(log, s) {
			t.Errorf("run log lacks %q:\n%s", s, log)
		}
	}
}

// TestBoundaryConvergenceFig9 is Fig. 9: an interior Stokes problem on the
// cube sphere whose exact solution is a sum of exterior Stokeslets, solved
// with the direct far field and refined; the on-surface velocity error at
// non-collocation points and the GMRES count may not get worse than the
// values this study printed when it was a table (level 2 adds 40 s, so
// -short stops at level 1).
func TestBoundaryConvergenceFig9(t *testing.T) {
	srcs := [][3]float64{{2.5, 0.3, -0.1}, {-2.2, 1.1, 0.7}, {0.4, -2.8, 1.3}}
	fs := [][3]float64{{1, 0.5, -0.2}, {-0.3, 0.8, 1.1}, {0.6, -1.0, 0.4}}
	exact := func(x [3]float64) [3]float64 {
		var u [3]float64
		for i := range srcs {
			kernels.SingleLayerVel(u[:], 1, x, srcs[i], fs[i][:], 1)
		}
		return u
	}
	for _, lv := range []struct {
		level  int
		maxErr float64
		iters  int
	}{{0, 4.450e-4, 8}, {1, 2.634e-6, 8}, {2, 1.032e-6, 7}} {
		if lv.level == 2 && testing.Short() {
			t.Log("level 2 skipped under -short")
			break
		}
		b, err := Build("cubesphere", Params{Level: lv.level})
		if err != nil {
			t.Fatal(err)
		}
		surf := b.Surf
		f := surf.F
		var relErr float64
		var iters int
		par.Run(1, par.SKX(), func(c *par.Comm) {
			sv := bie.NewWallOperator(c, surf, bie.WithFarField(bie.DirectFarField()))
			rhs := make([]float64, surf.NumUnknowns())
			var gmax float64
			for k := range surf.Pts {
				g := exact(surf.Pts[k])
				copy(rhs[3*k:3*k+3], g[:])
				for d := 0; d < 3; d++ {
					gmax = math.Max(gmax, math.Abs(g[d]))
				}
			}
			phi, res := bie.Solve(c, sv, rhs, nil, 1e-6, 80)
			iters = res.Iterations
			var maxErr float64
			for pid := 0; pid < f.NumPatches(); pid += max(1, f.NumPatches()/12) {
				for _, uv := range [][2]float64{{0.37, -0.21}, {-0.55, 0.63}} {
					got := sv.OnSurfaceVelocity(c, phi, pid, uv[0], uv[1])
					want := exact(f.Patches[pid].Eval(uv[0], uv[1]))
					for d := 0; d < 3; d++ {
						maxErr = math.Max(maxErr, math.Abs(got[d]-want[d]))
					}
				}
			}
			relErr = maxErr / gmax
		})
		t.Logf("level %d: patch size %.4f, max rel err %.3e, %d iterations", lv.level, surf.L[0], relErr, iters)
		// The bound is the printed value, so allow its rounding.
		if relErr > lv.maxErr*(1+1e-3) {
			t.Errorf("level %d: max rel err %.3e, want <= %.3e", lv.level, relErr, lv.maxErr)
		}
		if iters > lv.iters {
			t.Errorf("level %d: %d GMRES iterations, want <= %d", lv.level, iters, lv.iters)
		}
	}
}

// TestTimeStepConvergenceFig11 is Fig. 11: the two-cell shear run over
// T = 1 at 2/4/8/16 steps, each through Runner.Run, against a 64-step
// reference. The centroid error must be no worse than the study printed,
// fall strictly with Δt, and fall at least first order over the last
// halving (it measures 1.06).
func TestTimeStepConvergenceFig11(t *testing.T) {
	run := func(order, steps int) [][3]float64 {
		rec := (&Runner{}).Run(context.Background(), RunSpec{
			ID: fmt.Sprintf("shear-p%d-n%d", order, steps), Scenario: "shear", Steps: steps,
			Params: Params{SphOrder: order, Dt: 1 / float64(steps)},
		})
		if rec.Status != "ok" {
			t.Fatalf("%s: %s (%s)", rec.ID, rec.Status, rec.Error)
		}
		return rec.Outcome.Centroids
	}
	t.Run("order4", func(t *testing.T) {
		ref := run(4, 64)
		var errs []float64
		for i, tc := range []struct {
			steps int
			err   float64
		}{{2, 9.161e-2}, {4, 6.350e-2}, {8, 3.607e-2}, {16, 1.728e-2}} {
			got := run(4, tc.steps)
			var e float64
			for c := range ref {
				for d := 0; d < 3; d++ {
					e = math.Max(e, math.Abs(got[c][d]-ref[c][d]))
				}
			}
			t.Logf("%2d steps, dt %.4f: centroid err %.3e", tc.steps, 1/float64(tc.steps), e)
			if e > tc.err*(1+1e-3) {
				t.Errorf("%d steps: centroid err %.3e, want <= %.3e", tc.steps, e, tc.err)
			}
			if i > 0 && !(e < errs[i-1]) {
				t.Errorf("%d steps: centroid err %.3e does not fall below %.3e", tc.steps, e, errs[i-1])
			}
			errs = append(errs, e)
		}
		if p := math.Log2(errs[2] / errs[3]); !(p >= 1.0) {
			t.Errorf("observed order over the last halving %.2f, want >= 1", p)
		}
	})
	t.Run("order8", func(t *testing.T) {
		t.Skip("known failure, ROADMAP item 17 (the membrane holds no area): at order 8 the " +
			"centroid error is 2.10e-2, 1.56e-2, 4.98e-2, 3.98e-2 at 2/4/8/16 steps and " +
			"does not fall with dt (EXPERIMENTS.md, \"Fig. 11 at order 8\")")
	})
}

// TestSedimentationFig7 is Fig. 7 at its single-machine size: 14 cells
// settle in the capsule for 4 steps through Runner.Run. The study printed
// 14 cells at 3.0 % volume fraction and a mean height of -0.1457 -> -0.1723.
// The lower-half volume fraction is logged only: it falls slightly at this
// size, and whether dense packing makes it rise is ROADMAP item 3's check.
func TestSedimentationFig7(t *testing.T) {
	b, err := Build("capsule", Params{MaxCells: 14, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	meanZ := func(cells []*rbc.Cell) float64 {
		var z float64
		for _, c := range cells {
			z += c.Centroid()[2]
		}
		return z / float64(len(cells))
	}
	lowerHalf := func(cells []*rbc.Cell) float64 {
		var v float64
		for _, c := range cells {
			if c.Centroid()[2] < 0 {
				v += c.Volume()
			}
		}
		return 2 * v / b.Surf.EnclosedVolume()
	}
	z0, lower0 := meanZ(b.Cells), lowerHalf(b.Cells)

	// The run's checkpoint holds its final cells.
	dir := t.TempDir()
	rec := (&Runner{OutDir: dir}).Run(context.Background(), RunSpec{ID: "fig7", Scenario: "capsule", Params: b.Params, Steps: 4, Bundle: b})
	if rec.Status != "ok" {
		t.Fatalf("%s (%s)", rec.Status, rec.Error)
	}
	ck, err := LoadCheckpoint(filepath.Join(dir, "fig7", "state.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := CellsFromState(ck.Cells, b.Config.SphOrder)
	if err != nil {
		t.Fatal(err)
	}
	z1, vf := meanZ(cells), rec.Outcome.VolFraction
	t.Logf("%d cells, volume fraction %.1f%%, mean height %+.4f -> %+.4f, lower-half volume fraction %.1f%% -> %.1f%%",
		rec.NumCells, 100*vf, z0, z1, 100*lower0, 100*lowerHalf(cells))
	if rec.NumCells != 14 || fmt.Sprintf("%.1f", 100*vf) != "3.0" {
		t.Errorf("population: %d cells at %.1f%%, want 14 at 3.0%%", rec.NumCells, 100*vf)
	}
	if got := fmt.Sprintf("%+.4f -> %+.4f", z0, z1); got != "-0.1457 -> -0.1723" {
		t.Errorf("mean height %s, want -0.1457 -> -0.1723", got)
	}
	if !(z1 < z0) {
		t.Errorf("cells rose: mean height %v -> %v", z0, z1)
	}
}
