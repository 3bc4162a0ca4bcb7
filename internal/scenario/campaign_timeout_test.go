package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rbcflow/internal/bie"
	"rbcflow/internal/core"
	"rbcflow/internal/rbc"
)

// timeoutTestSteps counts every step the campaign-slow scenario executes —
// the zombie-run regression assertion: after a timeout record lands, the
// counter must be static, because the run's world has actually exited.
var timeoutTestSteps atomic.Int64

func init() {
	// campaign-slow: one free-space cell with an artificial per-step delay,
	// so a small TimeoutSec reliably fires mid-run.
	Register(&Scenario{
		Name:        "campaign-slow",
		Description: "TESTING: free-space cell with an artificial per-step delay",
		Steppable:   true,
		BuildGeometry: func(p Params) (*Geom, error) {
			return &Geom{}, nil
		},
		Populate: func(g *Geom, p Params) (*Bundle, error) {
			if p.Dt == 0 {
				p.Dt = 0.05
			}
			cells := []*rbc.Cell{rbc.NewBiconcaveCell(p.SphOrder, 1, [3]float64{0, 0, 0}, nil)}
			return &Bundle{
				Cells: cells,
				Config: core.Config{
					SphOrder: p.SphOrder, Mu: p.Mu, KappaB: p.KappaB, Dt: p.Dt, MinSep: 0.04,
					Background: func(x [3]float64) [3]float64 { return [3]float64{x[2], 0, 0} },
					FMM:        bie.FMMConfig{DirectBelow: 1 << 40},
					FaultInject: func(int, []*rbc.Cell) {
						timeoutTestSteps.Add(1)
						time.Sleep(40 * time.Millisecond)
					},
				},
			}, nil
		},
	})
}

// TestCampaignTimeoutStopsRun is the zombie-run regression test: a run that
// exceeds TimeoutSec is recorded as "timeout" AND its stepping world has
// exited by the time the record exists — no goroutine keeps burning CPU, no
// checkpoint or telemetry of the cancelled segment is ever written.
func TestCampaignTimeoutStopsRun(t *testing.T) {
	dir := t.TempDir()
	cfg := &CampaignConfig{
		Scenarios:       []string{"campaign-slow"},
		Steps:           200, // ~8s of sleeps; the timeout fires long before
		Ranks:           1,
		Workers:         1,
		TimeoutSec:      0.3,
		CheckpointEvery: 0,
		Sweep:           map[string][]float64{"sph_order": {3}},
	}
	m, err := RunCampaignContext(context.Background(), cfg, dir, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 1 {
		t.Fatalf("want 1 run, got %d", len(m.Runs))
	}
	rec := m.Runs[0]
	if rec.Status != "timeout" {
		t.Fatalf("want status timeout, got %q (%s)", rec.Status, rec.Error)
	}

	// RunCampaignContext returning proves executeSpec returned, which (being
	// synchronous now) proves the world exited. The counter must hold.
	before := timeoutTestSteps.Load()
	time.Sleep(200 * time.Millisecond)
	if after := timeoutTestSteps.Load(); after != before {
		t.Fatalf("zombie run: %d steps executed after the timeout was recorded", after-before)
	}

	// The cancelled segment wrote NOTHING: no checkpoint to resume into the
	// middle of a half-finished segment, no observable/telemetry rows (the
	// observer creates header-only CSVs at run start; they must have stayed
	// empty), no VTK.
	runDir := filepath.Join(dir, rec.ID)
	if _, err := os.Stat(filepath.Join(runDir, "state.ckpt")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("timed-out run wrote state.ckpt (stat err %v)", err)
	}
	for _, name := range []string{"observables.csv", "telemetry.csv", "timings.csv"} {
		blob, err := os.ReadFile(filepath.Join(runDir, name))
		if err != nil {
			t.Errorf("reading %s: %v", name, err)
			continue
		}
		if lines := strings.Split(strings.TrimSpace(string(blob)), "\n"); len(lines) > 1 {
			t.Errorf("timed-out run wrote %d data rows to %s", len(lines)-1, name)
		}
	}
	if vtks, _ := filepath.Glob(filepath.Join(runDir, "cells_*.vtk")); len(vtks) != 0 {
		t.Errorf("timed-out run wrote VTK snapshots: %v", vtks)
	}
	if len(rec.Outputs) != 0 {
		t.Errorf("timed-out run claims outputs: %v", rec.Outputs)
	}

	// The manifest on disk carries the same record (it was written AFTER
	// the run stopped, never mutated afterwards).
	blob, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk Manifest
	if err := json.Unmarshal(blob, &onDisk); err != nil {
		t.Fatal(err)
	}
	if len(onDisk.Runs) != 1 || onDisk.Runs[0].Status != "timeout" {
		t.Fatalf("manifest on disk: %+v", onDisk.Runs)
	}
}

// TestCampaignContextCancelDrains: cancelling the campaign context stops
// the in-flight run (status "cancelled") and marks never-started runs
// "cancelled" without executing them.
func TestCampaignContextCancelDrains(t *testing.T) {
	dir := t.TempDir()
	cfg := &CampaignConfig{
		Scenarios: []string{"campaign-slow"},
		Steps:     200,
		Ranks:     1,
		Workers:   1,
		Sweep:     map[string][]float64{"seed": {1, 2}}, // 2 runs, serial
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(250 * time.Millisecond) // mid-first-run
		cancel()
	}()
	m, err := RunCampaignContext(ctx, cfg, dir, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 2 {
		t.Fatalf("want 2 records, got %d", len(m.Runs))
	}
	for i, rec := range m.Runs {
		if rec.Status != "cancelled" {
			t.Errorf("run %d: want cancelled, got %q (%s)", i, rec.Status, rec.Error)
		}
	}
	before := timeoutTestSteps.Load()
	time.Sleep(200 * time.Millisecond)
	if after := timeoutTestSteps.Load(); after != before {
		t.Fatalf("zombie run: %d steps executed after the campaign drained", after-before)
	}
}

// TestNormalizeRejectsBadConfig: explicit negative values fail loudly with
// a typed ConfigError instead of silently misbehaving (a negative timeout
// used to make time.After fire immediately).
func TestNormalizeRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name  string
		cfg   CampaignConfig
		field string
	}{
		{"negative timeout", CampaignConfig{TimeoutSec: -1}, "timeout_sec"},
		{"negative steps", CampaignConfig{Steps: -3}, "steps"},
		{"negative ranks", CampaignConfig{Ranks: -2}, "ranks"},
		{"ranks past MaxRanks", CampaignConfig{Ranks: MaxRanks + 1}, "ranks"},
		{"negative workers", CampaignConfig{Workers: -1}, "workers"},
	}
	for _, tc := range cases {
		err := tc.cfg.Normalize()
		var cerr *ConfigError
		if !errors.As(err, &cerr) {
			t.Errorf("%s: want *ConfigError, got %v", tc.name, err)
			continue
		}
		if cerr.Field != tc.field {
			t.Errorf("%s: want field %q, got %q", tc.name, tc.field, cerr.Field)
		}
	}

	// Zero timeout still normalizes to the default watchdog.
	good := CampaignConfig{}
	if err := good.Normalize(); err != nil {
		t.Fatal(err)
	}
	if good.TimeoutSec != DefaultTimeoutSec {
		t.Fatalf("want default timeout %v, got %v", DefaultTimeoutSec, good.TimeoutSec)
	}
}
