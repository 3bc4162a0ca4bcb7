package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"rbcflow/internal/telemetry"
	"rbcflow/internal/trace"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestFlightBundleOnInjectedNaN is the fault-injection smoke: poisoning one
// cell coordinate with NaN must halt the run at that step with a structured
// HealthError and a complete postmortem bundle — health report with the
// provenance meta, a validating Chrome trace tail, the telemetry snapshot,
// and the scenario parameters. Runs at 2 ranks so the collective
// trip-agreement path (one rank sees the NaN first) is exercised.
func TestFlightBundleOnInjectedNaN(t *testing.T) {
	b, err := Build("shear", Params{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rec := trace.New(0)
	reg := telemetry.NewRegistry()
	reg.SetTracer(rec)
	h := trace.NewHealth(trace.HealthConfig{Log: quietLogger()}, rec, reg)

	out, err := ExecuteContext(context.Background(), b, RunOptions{
		Ranks: 2, Steps: 4, OutDir: dir,
		Telemetry: reg, Health: h, InjectNaNStep: 2,
	})
	if err == nil {
		t.Fatal("injected NaN must fail the run")
	}
	var herr *HealthError
	if !errors.As(err, &herr) {
		t.Fatalf("error is %T (%v), want *HealthError", err, err)
	}
	if herr.Step != 2 {
		t.Errorf("tripped at step %d, want 2", herr.Step)
	}
	if !h.Tripped() {
		t.Error("monitor not tripped")
	}
	fatal := false
	for _, v := range herr.Verdicts {
		fatal = fatal || v.Fatal
	}
	if !fatal {
		t.Errorf("no fatal verdict in %v", herr.Verdicts)
	}
	if out == nil || out.Steps != 2 {
		t.Fatalf("outcome should report the halt step (2), got %+v", out)
	}

	// The bundle: all four files, each independently loadable.
	bundle := filepath.Join(dir, "postmortem")
	if herr.BundleDir != bundle {
		t.Errorf("BundleDir %q, want %q", herr.BundleDir, bundle)
	}
	var health struct {
		Meta   FlightMeta   `json:"meta"`
		Health trace.Report `json:"health"`
	}
	data, err := os.ReadFile(filepath.Join(bundle, "health.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &health); err != nil {
		t.Fatalf("health.json: %v", err)
	}
	if health.Meta.Scenario != "shear" || health.Meta.Step != 2 || health.Meta.Ranks != 2 {
		t.Errorf("bundle meta %+v", health.Meta)
	}
	if !health.Health.Tripped || len(health.Health.Verdicts) == 0 {
		t.Errorf("bundle health report %+v", health.Health)
	}
	// (The GMRES solve ring is empty here by construction: shear is a
	// free-space scenario with no wall solve. The torus driver smoke and the
	// trace unit tests cover the populated ring.)

	stats, err := trace.ValidateChromeFile(filepath.Join(bundle, "trace.json"))
	if err != nil {
		t.Fatalf("bundle trace does not validate: %v", err)
	}
	if stats.ByName["core.step"] == 0 {
		t.Errorf("bundle trace has no core.step spans: %+v", stats.ByName)
	}

	var snap telemetry.Snapshot
	data, err = os.ReadFile(filepath.Join(bundle, "telemetry.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("telemetry.json: %v", err)
	}
	if snap.CounterMap()["health.trips"] == 0 {
		t.Error("telemetry snapshot lost the health.trips counter")
	}

	var p Params
	data, err = os.ReadFile(filepath.Join(bundle, "scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatalf("scenario.json: %v", err)
	}
	if p.Signature() != health.Meta.ParamsSig {
		t.Error("scenario.json params do not match the bundle meta signature")
	}

	// The partial tripped segment must NOT have been checkpointed: resuming
	// would replay the poisoned state.
	if _, err := os.Stat(filepath.Join(dir, "state.ckpt")); !os.IsNotExist(err) {
		t.Errorf("tripped run left a checkpoint (err=%v)", err)
	}
}

// TestHealthyRunDoesNotTrip pins the detector calibration: a normal shear
// run with the monitor attached completes with no fatal verdict.
func TestHealthyRunDoesNotTrip(t *testing.T) {
	b, err := Build("shear", Params{})
	if err != nil {
		t.Fatal(err)
	}
	h := trace.NewHealth(trace.HealthConfig{Log: quietLogger()}, nil, nil)
	if _, err := ExecuteContext(context.Background(), b, RunOptions{Ranks: 2, Steps: 3, Health: h}); err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	if h.Tripped() {
		t.Fatalf("healthy run tripped the monitor: %v", h.Verdicts())
	}
}

// TestCampaignRecordsHealthTrip: a campaign with fault injection drains to
// completion, records the tripped run as status "health-tripped" with its
// verdicts and bundle path in the manifest, and the manifest round-trips.
func TestCampaignRecordsHealthTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	dir := t.TempDir()
	rec := trace.New(0)
	cfg := &CampaignConfig{
		Scenarios:     []string{"shear"},
		Sweep:         map[string][]float64{"max_cells": {2, 4}},
		Steps:         3,
		Workers:       2,
		InjectNaNStep: 2,
		Trace:         rec,
	}
	m, err := RunCampaignContext(context.Background(), cfg, dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 2 {
		t.Fatalf("runs: %+v", m.Runs)
	}
	for _, r := range m.Runs {
		if r.Status != "health-tripped" || r.Health != "tripped" {
			t.Errorf("%s: status %q health %q, want health-tripped/tripped", r.ID, r.Status, r.Health)
		}
		if len(r.HealthVerdicts) == 0 {
			t.Errorf("%s: no verdicts recorded", r.ID)
		}
		if r.Bundle == "" {
			t.Errorf("%s: no bundle path recorded", r.ID)
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, r.Bundle, "health.json")); err != nil {
			t.Errorf("%s: bundle health.json missing: %v", r.ID, err)
		}
	}
	// The campaign-wide recorder saw both runs' labelled timelines.
	byLabel := map[string]bool{}
	for _, n := range rec.ThreadNames() {
		byLabel[n] = true
	}
	for _, want := range []string{"shear_maxcells2/rank0", "shear_maxcells4/rank0"} {
		if !byLabel[want] {
			t.Errorf("campaign trace missing timeline %q (have %v)", want, byLabel)
		}
	}
	// Round-trip through the manifest file.
	m2, err := LoadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Runs[0].Status != "health-tripped" || m2.Runs[0].Bundle == "" {
		t.Errorf("manifest round-trip lost health fields: %+v", m2.Runs[0])
	}
	// A clean campaign on the same config (no injection) reports health ok.
	cfg2 := &CampaignConfig{
		Scenarios: []string{"shear"},
		Steps:     2,
	}
	m3, err := RunCampaignContext(context.Background(), cfg2, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Runs[0].Status != "ok" || m3.Runs[0].Health != "ok" {
		t.Errorf("clean run: status %q health %q", m3.Runs[0].Status, m3.Runs[0].Health)
	}
}
