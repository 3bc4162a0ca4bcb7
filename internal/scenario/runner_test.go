package scenario

import (
	"bytes"
	"context"
	"log/slog"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
}

// TestNetworkScenariosBlendFully pins where blending is total: the
// geometries every benchmark workload, CI lane and golden uses build with no
// capsule-fallback junction. Deeper trees do fall back; their counts are
// logged, not asserted — they are what a later PR has to bring to zero.
func TestNetworkScenariosBlendFully(t *testing.T) {
	fallback := func(name string, p Params) []int {
		t.Helper()
		scn, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p.Defaults()
		g, err := scn.BuildGeometry(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return g.NetGeom.FallbackNodes
	}
	for _, name := range []string{"network-y", "network-honeycomb", "network-tree"} {
		if fb := fallback(name, Params{}); len(fb) != 0 {
			t.Errorf("%s at defaults: capsule fallback at junction nodes %v", name, fb)
		}
	}
	for depth := 3; depth <= 5; depth++ {
		t.Logf("network-tree depth %d: %d fallback junctions", depth, len(fallback("network-tree", Params{Depth: depth})))
	}
}

// TestRunnerReportsFallbackJunctions: a run on a geometry with capsule
// fallback junctions says so on all three channels — the record (and so the
// manifest), the run's registry, and one warning naming the nodes — and a
// fully blended one reports zero and stays quiet.
func TestRunnerReportsFallbackJunctions(t *testing.T) {
	var logged bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	defer slog.SetDefault(prev)

	const gauge = "network.junction.fallback_nodes"
	rn := &Runner{} // zero steps: geometry and cells only, no wall plan
	reg := telemetry.NewRegistry()
	r := rn.Run(context.Background(), RunSpec{ID: "tree3", Scenario: "network-tree", Params: Params{Depth: 3}, Telemetry: reg})
	if r.Status != "ok" || r.FallbackJunctions != 6 {
		t.Fatalf("depth-3 tree: status %q (%s), %d fallback junctions, want ok and 6", r.Status, r.Error, r.FallbackJunctions)
	}
	if v := reg.Gauge(gauge).Value(); v != 6 {
		t.Errorf("gauge %s = %g, want 6", gauge, v)
	}
	if out := logged.String(); strings.Count(out, "level=WARN") != 1 || !strings.Contains(out, "[2 3 6 9 10 13]") || !strings.Contains(out, "effective_blend=1") {
		t.Errorf("want one warning with the node list and the effective blend, got:\n%s", out)
	}

	logged.Reset()
	reg = telemetry.NewRegistry()
	r = rn.Run(context.Background(), RunSpec{ID: "y", Scenario: "network-y", Telemetry: reg})
	if r.Status != "ok" || r.FallbackJunctions != 0 || reg.Gauge(gauge).Value() != 0 {
		t.Fatalf("network-y: status %q (%s), %d fallback junctions, gauge %g", r.Status, r.Error, r.FallbackJunctions, reg.Gauge(gauge).Value())
	}
	if strings.Contains(logged.String(), "level=WARN") {
		t.Errorf("fully blended run warned:\n%s", logged.String())
	}
}
