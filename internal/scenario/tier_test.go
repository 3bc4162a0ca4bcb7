package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"rbcflow/internal/surrogate"
)

func TestTierConfigValidation(t *testing.T) {
	bad := []CampaignConfig{
		{Scenarios: []string{"network-y"}, Tier: "warp"},
		{Scenarios: []string{"network-y"}, Tier: TierSurrogate, Objective: "nope"},
		{Scenarios: []string{"network-y"}, Tier: TierMixed, TopK: -1},
		// Tier options on a plain BIE campaign are a config mistake, not a
		// silent no-op.
		{Scenarios: []string{"network-y"}, Objective: "pressure-drop"},
		{Scenarios: []string{"network-y"}, Tier: TierBIE, TopK: 2},
	}
	for i := range bad {
		var cerr *ConfigError
		if err := bad[i].Normalize(); !errors.As(err, &cerr) {
			t.Fatalf("config %d: want *ConfigError, got %v", i, err)
		}
	}
	good := CampaignConfig{Scenarios: []string{"network-y"}, Tier: TierMixed}
	if err := good.Normalize(); err != nil {
		t.Fatal(err)
	}
	if good.Objective != "pressure-drop" || good.TopK != 1 {
		t.Fatalf("mixed-tier defaults: objective %q top_k %d", good.Objective, good.TopK)
	}
}

func TestSurrogateCampaign(t *testing.T) {
	cfg := &CampaignConfig{
		Scenarios: []string{"network-y", "network-tree"},
		Sweep:     map[string][]float64{"hct": {0.15, 0.3}},
		Tier:      TierSurrogate,
	}
	m, err := RunCampaignContext(context.Background(), cfg, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 4 || m.OKCount() != 4 {
		t.Fatalf("want 4 ok runs, got %d ok of %d: %+v", m.OKCount(), len(m.Runs), m.Runs)
	}
	for _, r := range m.Runs {
		if r.Tier != TierSurrogate || r.Surrogate == nil {
			t.Fatalf("run %s: tier %q surrogate %v", r.ID, r.Tier, r.Surrogate)
		}
		if !r.Surrogate.Converged || r.Surrogate.FlowImbalance > 1e-12 || r.Surrogate.RBCImbalance > 1e-12 {
			t.Fatalf("run %s: surrogate record %+v", r.ID, r.Surrogate)
		}
		if r.Promoted {
			t.Fatalf("run %s promoted in a surrogate-only campaign", r.ID)
		}
	}
	if m.Promotion == nil || m.Promotion.Objective != "pressure-drop" {
		t.Fatalf("promotion: %+v", m.Promotion)
	}
	if len(m.Promotion.Ranking) != 4 || len(m.Promotion.Promoted) != 0 {
		t.Fatalf("ranking/promoted: %+v", m.Promotion)
	}
	if !sort.SliceIsSorted(m.Promotion.Ranking, func(i, j int) bool {
		return m.Promotion.Ranking[i].Objective > m.Promotion.Ranking[j].Objective
	}) {
		t.Fatalf("ranking not descending: %+v", m.Promotion.Ranking)
	}
	// Higher inlet haematocrit means higher effective viscosity and a larger
	// driving pressure drop at fixed inflow — physics the ranking must see.
	obj := map[string]float64{}
	for _, rr := range m.Promotion.Ranking {
		obj[rr.ID] = rr.Objective
	}
	if obj["network-y_hct0.3"] <= obj["network-y_hct0.15"] {
		t.Fatalf("pressure drop not increasing in hct: %+v", obj)
	}
}

// TestMixedCampaign runs the full mixed-tier pipeline on the Y network: the
// sweep through the surrogate, the top point promoted through the real BIE
// stepper, and the deterministic manifest pinned against a golden file.
func TestMixedCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("promoted BIE run is too slow for -short")
	}
	cfg := &CampaignConfig{
		Scenarios: []string{"network-y"},
		Base:      Params{SphOrder: 3, MaxCells: 2},
		Sweep:     map[string][]float64{"hct": {0.15, 0.3}},
		Tier:      TierMixed,
		Steps:     1,
		Workers:   1,
	}
	dir := t.TempDir()
	m, err := RunCampaignContext(context.Background(), cfg, dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 3 {
		t.Fatalf("want 2 surrogate + 1 promoted run, got %d: %+v", len(m.Runs), m.Runs)
	}
	if m.Promotion == nil || len(m.Promotion.Promoted) != 1 || m.Promotion.Promoted[0] != "network-y_hct0.3" {
		t.Fatalf("promotion: %+v", m.Promotion)
	}
	var bieRec *RunRecord
	for i := range m.Runs {
		r := &m.Runs[i]
		switch r.ID {
		case "network-y_hct0.3":
			if !r.Promoted || r.Tier != TierSurrogate {
				t.Fatalf("top point: %+v", r)
			}
		case "network-y_hct0.15":
			if r.Promoted {
				t.Fatalf("unpromoted point marked promoted: %+v", r)
			}
		case "network-y_hct0.3__bie":
			bieRec = r
		default:
			t.Fatalf("unexpected run %s", r.ID)
		}
	}
	if bieRec == nil || bieRec.Status != "ok" || bieRec.Tier != TierBIE {
		t.Fatalf("promoted BIE run: %+v", bieRec)
	}
	if bieRec.Steps != 1 || bieRec.NumCells == 0 {
		t.Fatalf("promoted BIE run did not step: %+v", bieRec)
	}
	if m.Promotion.SpeedupPerPoint < 100 {
		t.Fatalf("surrogate point must be ≥100× cheaper than a BIE point, got %.1f×", m.Promotion.SpeedupPerPoint)
	}

	// Golden manifest: normalize the volatile fields (wall-clock seconds,
	// content-addressed fingerprints, per-run telemetry) and compare the
	// remaining structure with numeric tolerance.
	got := normalizeManifest(t, m)
	goldenPath := filepath.Join("testdata", "mixed_campaign_manifest.golden.json")
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want any
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if diff := compareJSON(got, want, "manifest"); diff != "" {
		t.Fatalf("manifest drifted from golden (regenerate with -update-golden if intended):\n%s", diff)
	}
}

// normalizeManifest strips the explicitly non-deterministic manifest fields:
// wall-clock seconds, content-addressed plan fingerprints, and the per-run
// telemetry maps (deterministic per rank count, but enormous and pinned by
// their own tests).
func normalizeManifest(t *testing.T, m *Manifest) any {
	t.Helper()
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(blob, &v); err != nil {
		t.Fatal(err)
	}
	var walk func(any) any
	walk = func(x any) any {
		switch x := x.(type) {
		case map[string]any:
			for k := range x {
				switch k {
				case "telemetry", "telemetry_gauges", "telemetry_seconds", "telemetry_totals":
					delete(x, k)
				case "tier_seconds", "surrogate_seconds_per_point", "bie_seconds_per_point", "speedup_per_point", "virtual_time":
					x[k] = 0.0
				case "plan_fingerprint", "fingerprint":
					if s, ok := x[k].(string); ok && s != "" {
						x[k] = "<fingerprint>"
					}
				default:
					x[k] = walk(x[k])
				}
			}
			return x
		case []any:
			for i := range x {
				x[i] = walk(x[i])
			}
			return x
		}
		return x
	}
	return walk(v)
}

// compareJSON structurally diffs two decoded JSON values: numbers within a
// relative 1e-9, everything else exactly. Returns "" on match.
func compareJSON(got, want any, path string) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return fmt.Sprintf("%s: got %T, want object", path, got)
		}
		var keys []string
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			gv, gok := g[k]
			wv, wok := w[k]
			if !gok || !wok {
				return fmt.Sprintf("%s.%s: present in %s only", path, k,
					map[bool]string{true: "got", false: "golden"}[gok])
			}
			if d := compareJSON(gv, wv, path+"."+k); d != "" {
				return d
			}
		}
		return ""
	case []any:
		g, ok := got.([]any)
		if !ok {
			return fmt.Sprintf("%s: got %T, want array", path, got)
		}
		if len(g) != len(w) {
			return fmt.Sprintf("%s: length %d vs %d", path, len(g), len(w))
		}
		for i := range w {
			if d := compareJSON(g[i], w[i], fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
		return ""
	case float64:
		g, ok := got.(float64)
		if !ok {
			return fmt.Sprintf("%s: got %T, want number", path, got)
		}
		if diff := math.Abs(g - w); diff > 1e-9*math.Max(1, math.Max(math.Abs(g), math.Abs(w))) {
			return fmt.Sprintf("%s: %g vs %g", path, g, w)
		}
		return ""
	default:
		if got != want {
			return fmt.Sprintf("%s: %v vs %v", path, got, want)
		}
		return ""
	}
}

// TestMixedCampaignCalibrated threads a calibration artifact through the
// campaign config and checks it reaches the surrogate records.
func TestMixedCampaignCalibrated(t *testing.T) {
	cal := &surrogate.Calibration{
		Version:     surrogate.CalibrationVersion,
		Fingerprint: "test",
		Law:         "pries-invitro",
		Regimes:     []surrogate.Regime{{RMin: 0, RMax: math.MaxFloat64, Factor: 0.9, Samples: 1}},
	}
	path := filepath.Join(t.TempDir(), "cal.gob")
	if err := surrogate.SaveCalibration(path, cal); err != nil {
		t.Fatal(err)
	}
	cfg := &CampaignConfig{
		Scenarios:       []string{"network-y"},
		Tier:            TierSurrogate,
		Objective:       "max-velocity",
		CalibrationPath: path,
	}
	m, err := RunCampaignContext(context.Background(), cfg, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 1 || m.Runs[0].Status != "ok" {
		t.Fatalf("runs: %+v", m.Runs)
	}
	if !m.Runs[0].Surrogate.Calibrated {
		t.Fatal("calibration did not reach the surrogate solve")
	}
	// The same campaign without the artifact scores a 1/0.9 larger
	// max-velocity objective.
	cfg2 := &CampaignConfig{Scenarios: []string{"network-y"}, Tier: TierSurrogate, Objective: "max-velocity"}
	m2, err := RunCampaignContext(context.Background(), cfg2, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Runs[0].Surrogate.Objective / m2.Runs[0].Surrogate.Objective
	if math.Abs(r-0.9) > 1e-12 {
		t.Fatalf("calibrated/uncalibrated objective ratio %g, want 0.9", r)
	}
}

// TestSurrogateBackendByDepth mirrors the serve_mix benchmark's path check:
// the depth-10 network-tree (2048 nodes) solves on dense LU, the depth-14
// one (32768 nodes) on CG, and both conserve mass.
func TestSurrogateBackendByDepth(t *testing.T) {
	for _, c := range []struct {
		depth  float64
		sparse bool
	}{{10, false}, {14, true}} {
		var p Params
		if err := p.Set("depth", c.depth); err != nil {
			t.Fatal(err)
		}
		_, res, err := RunSurrogate("network-tree", p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sparse != c.sparse || (res.CGIters > 0) != c.sparse {
			t.Fatalf("depth %g: Sparse=%v CGIters=%d, want Sparse=%v", c.depth, res.Sparse, res.CGIters, c.sparse)
		}
		if !res.Converged || res.FlowImbalance > 1e-12 {
			t.Fatalf("depth %g: converged=%v, mass imbalance %g", c.depth, res.Converged, res.FlowImbalance)
		}
	}
}
