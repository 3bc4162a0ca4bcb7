package scenario

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rbcflow/internal/network"
	"rbcflow/internal/telemetry"
)

func init() {
	Register(&Scenario{
		Name:          "runner-panics",
		Description:   "TESTING: Populate panics",
		Steppable:     true,
		BuildGeometry: func(Params) (*Geom, error) { return &Geom{}, nil },
		Populate:      func(*Geom, Params) (*Bundle, error) { panic("populate exploded") },
	})
}

// TestRunnerStatuses pins the one classifier: every terminal status a run
// can end in, produced through Runner.Run. The campaign and serve suites only
// check how their front end maps these records onto its own wire type.
func TestRunnerStatuses(t *testing.T) {
	slow := RunSpec{ID: "slow", Scenario: "campaign-slow", Params: Params{SphOrder: 3}, Steps: 200}
	cancelMidRun := func() (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(150*time.Millisecond, cancel)
		return ctx, cancel
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		status string
		rn     *Runner
		spec   RunSpec
		ctx    func() (context.Context, context.CancelFunc)
		check  func(t *testing.T, r RunRecord)
	}{
		{status: "ok", rn: &Runner{Steps: 1}, spec: RunSpec{ID: "ok", Scenario: "shear"},
			check: func(t *testing.T, r RunRecord) {
				if r.Steps != 1 || r.NumCells == 0 || r.Health != "ok" || r.Outcome == nil || len(r.Outcome.Rows) != 1 {
					t.Errorf("ok record incomplete: %+v", r)
				}
			}},
		{status: "geometry-only", rn: &Runner{OutDir: dir}, spec: RunSpec{ID: "cube", Scenario: "cubesphere"},
			check: func(t *testing.T, r RunRecord) {
				if len(r.Outputs) != 1 || r.Outputs[0] != filepath.Join("cube", "wall.vtk") {
					t.Fatalf("outputs: %v", r.Outputs)
				}
				if _, _, err := ValidateVTKFile(filepath.Join(dir, r.Outputs[0])); err != nil {
					t.Error(err)
				}
			}},
		{status: "failed", rn: &Runner{Steps: 1}, spec: RunSpec{ID: "boom", Scenario: "runner-panics"},
			check: func(t *testing.T, r RunRecord) {
				if !strings.Contains(r.Error, "populate exploded") {
					t.Errorf("panic value lost: %q", r.Error)
				}
			}},
		{status: "failed", rn: &Runner{}, spec: RunSpec{Scenario: "shear", Tier: TierSurrogate},
			check: func(t *testing.T, r RunRecord) {
				if !strings.Contains(r.Error, "not a network-family scenario") {
					t.Errorf("error: %q", r.Error)
				}
			}},
		{status: "timeout", rn: &Runner{TimeoutSec: 30}, spec: func() RunSpec { s := slow; s.TimeoutSec = 0.001; return s }(),
			check: func(t *testing.T, r RunRecord) {
				if r.Steps >= 200 || !strings.Contains(r.Error, "exceeded 0.001s") {
					t.Errorf("timeout record: %+v", r)
				}
			}},
		{status: "cancelled", rn: &Runner{}, spec: slow, ctx: cancelMidRun,
			check: func(t *testing.T, r RunRecord) {
				if r.Steps == 0 || r.Steps >= 200 {
					t.Errorf("mid-run cancel stopped at step %d", r.Steps)
				}
			}},
		{status: "cancelled", rn: &Runner{Steps: 1}, spec: RunSpec{Scenario: "shear"},
			ctx: func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx, cancel
			},
			check: func(t *testing.T, r RunRecord) {
				if r.Outcome != nil || !strings.Contains(r.Error, "before this run started") {
					t.Errorf("dead context still ran: %+v", r)
				}
			}},
		{status: "health-tripped", rn: &Runner{Steps: 3, Ranks: 2, InjectNaNStep: 2, OutDir: dir},
			spec: RunSpec{ID: "nan", Scenario: "shear"},
			check: func(t *testing.T, r RunRecord) {
				if r.Health != "tripped" || len(r.HealthVerdicts) == 0 || r.Steps != 2 {
					t.Errorf("tripped record: %+v", r)
				}
				if r.Bundle != filepath.Join("nan", "postmortem") {
					t.Errorf("bundle %q", r.Bundle)
				}
			}},
	} {
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if tc.ctx != nil {
			ctx, cancel = tc.ctx()
		}
		r := tc.rn.Run(ctx, tc.spec)
		cancel()
		if r.Status != tc.status {
			t.Errorf("%s %s: status %q (%s), want %q", tc.spec.Scenario, tc.spec.ID, r.Status, r.Error, tc.status)
			continue
		}
		if (r.Status == "ok" || r.Status == "geometry-only") != (r.Error == "") {
			t.Errorf("%s: error %q does not match the status", r.Status, r.Error)
		}
		tc.check(t, r)
	}
}

// A disabled monitor leaves no health verdict on the record, and a spec's
// explicit overrides beat the runner's defaults.
func TestRunnerOverrides(t *testing.T) {
	rn := &Runner{Steps: 3, Ranks: 1, DisableHealth: true}
	r := rn.Run(context.Background(), RunSpec{Scenario: "shear", Steps: 1, Ranks: 2})
	if r.Status != "ok" || r.Steps != 1 || r.Health != "" {
		t.Fatalf("record: %+v", r)
	}
	// A default past MaxRanks fails the run before any world is started.
	rn.Ranks = MaxRanks + 1
	if r := rn.Run(context.Background(), RunSpec{Scenario: "shear", Steps: 1}); r.Status != "failed" || !strings.Contains(r.Error, "invalid ranks") {
		t.Fatalf("Runner.Ranks = MaxRanks+1: record %+v", r)
	}
}

// TestNetworkScenariosBlendFully pins that every junction of the registered
// networks blends: the defaults every benchmark workload, CI lane and golden
// uses, and the binary tree at depths 1–5, with the blend width the ladder
// settles on (the full width at depth 1, one halving deeper).
func TestNetworkScenariosBlendFully(t *testing.T) {
	build := func(name string, p Params) float64 {
		t.Helper()
		scn, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p.Defaults()
		g, err := scn.BuildGeometry(p)
		if err != nil {
			t.Fatalf("%s %+v: %v", name, p, err)
		}
		return g.NetGeom.EffectiveBlend
	}
	for _, name := range []string{"network-y", "network-honeycomb"} {
		build(name, Params{})
	}
	for depth := 1; depth <= 5; depth++ {
		want := 0.5
		if depth == 1 {
			want = 1
		}
		if eb := build("network-tree", Params{Depth: depth}); eb != want {
			t.Errorf("network-tree depth %d: effective blend %g, want %g", depth, eb, want)
		}
	}
}

// TestRunnerRejectsUnblendableJunction: an imported network with a junction
// too tight for any rung of the blend-width ladder ends the run in an error
// that names the node; no geometry is built around it.
func TestRunnerRejectsUnblendableJunction(t *testing.T) {
	n := network.YBifurcation(network.YParams{ParentRadius: 1, ChildRadius: 0.9, ParentLen: 5, ChildLen: 2.2, HalfAngle: 0.06})
	n.SetFlow(0, 2)
	n.SetPressure(2, 0)
	n.SetPressure(3, 0)
	path := filepath.Join(t.TempDir(), "narrow.json")
	if err := network.Save(n, path); err != nil {
		t.Fatal(err)
	}
	r := (&Runner{}).Run(context.Background(), RunSpec{ID: "narrow", Scenario: "network-json", Params: Params{NetworkPath: path}})
	if r.Status != "failed" || !strings.Contains(r.Error, "node 1:") || !strings.Contains(r.Error, "not blendable") {
		t.Fatalf("want a failed run naming node 1 as not blendable, got status %q: %s", r.Status, r.Error)
	}
}

// TestNetworkTreeDepth3Steps: the depth-3 tree, whose planar predecessor
// split into 13 wall components and stalled GMRES at residual 0.31, steps
// healthily with every wall solve converged.
func TestNetworkTreeDepth3Steps(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the depth-3 tree's wall plan (about a minute)")
	}
	reg := telemetry.NewRegistry()
	r := (&Runner{}).Run(context.Background(), RunSpec{ID: "tree3", Scenario: "network-tree", Params: Params{Depth: 3}, Steps: 2, Telemetry: reg})
	if r.Status != "ok" || r.Health != "ok" || r.Steps != 2 {
		t.Fatalf("depth-3 tree: status %q, health %q, %d steps: %s %v", r.Status, r.Health, r.Steps, r.Error, r.HealthVerdicts)
	}
	counters := reg.Snapshot().CounterMap()
	if n := counters["bie.gmres.unconverged"]; n != 0 {
		t.Fatalf("bie.gmres.unconverged = %d, want 0", n)
	}
	if n := counters["bie.solve.count"]; n < 2 {
		t.Fatalf("bie.solve.count = %d, want one solve per step", n)
	}
}
