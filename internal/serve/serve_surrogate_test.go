package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"rbcflow/internal/scenario"
	"rbcflow/internal/surrogate"
)

func jsonBody(v any) (io.Reader, error) {
	blob, err := json.Marshal(v)
	return bytes.NewReader(blob), err
}

// TestSurrogateFastPath is the serve-side acceptance test: a
// tier:"surrogate" request resolves without an execution slot or a wall
// plan — zero dispatched BIE runs, zero plan builds, a per-tier ledger slice
// of its own.
func TestSurrogateFastPath(t *testing.T) {
	store := NewMemStore()
	srv := New(Config{Ranks: 1, Workers: 1}, store, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, res := postRun(t, ts.URL, RunRequest{
		Scenario: "network-y",
		Tier:     "surrogate",
		Params:   map[string]float64{"hct": 0.3},
	})
	if resp.StatusCode != http.StatusOK || res.Status != "ok" {
		t.Fatalf("HTTP %d, status %q (%s)", resp.StatusCode, res.Status, res.Error)
	}
	if res.Tier != scenario.TierSurrogate || res.Surrogate == nil {
		t.Fatalf("result: tier %q surrogate %+v", res.Tier, res.Surrogate)
	}
	if !res.Surrogate.Converged || res.Surrogate.FlowImbalance > 1e-12 {
		t.Fatalf("surrogate summary: %+v", res.Surrogate)
	}
	if res.Surrogate.PressureDrop <= 0 || res.Surrogate.MaxVelocity <= 0 {
		t.Fatalf("headline quantities missing: %+v", res.Surrogate)
	}
	if res.PlanFingerprint != "" {
		t.Fatalf("fast path consumed a wall plan: %+v", res)
	}

	st := getStats(t, ts.URL)
	if st.Requests != 1 || st.Completed != 1 || st.Batches != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(st.PlanStats) != 0 {
		t.Fatalf("surrogate request built a wall plan: %+v", st.PlanStats)
	}
	tier := st.Tiers[scenario.TierSurrogate]
	if tier == nil || tier.Requests != 1 || tier.Completed != 1 || tier.ByStatus["ok"] != 1 {
		t.Fatalf("surrogate tier ledger: %+v", st.Tiers)
	}
	if st.Tiers[scenario.TierBIE] != nil {
		t.Fatalf("phantom bie ledger: %+v", st.Tiers[scenario.TierBIE])
	}

	// The result is persisted and retrievable like any other run.
	got, err := store.Get(res.ID)
	if err != nil || got.Tier != scenario.TierSurrogate {
		t.Fatalf("store: %+v, %v", got, err)
	}
}

// TestSurrogateRequestValidation: both tiers share one validator, and a
// refused request never gets a run ID, a ledger slot or a stored result.
func TestSurrogateRequestValidation(t *testing.T) {
	store := NewMemStore()
	srv := New(Config{Ranks: 1, Workers: 1}, store, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name string
		req  RunRequest
		code int
	}{
		{"unknown tier", RunRequest{Scenario: "network-y", Tier: "warp"}, http.StatusBadRequest},
		{"mixed is campaign-only", RunRequest{Scenario: "network-y", Tier: "mixed"}, http.StatusBadRequest},
		{"stream unsupported", RunRequest{Scenario: "network-y", Tier: "surrogate", Stream: true}, http.StatusBadRequest},
		{"missing scenario", RunRequest{Tier: "surrogate"}, http.StatusBadRequest},
		{"bad param", RunRequest{Scenario: "network-y", Tier: "surrogate",
			Params: map[string]float64{"nope": 1}}, http.StatusBadRequest},
		{"non-network scenario", RunRequest{Scenario: "shear", Tier: "surrogate"}, http.StatusBadRequest},
		{"negative timeout", RunRequest{Scenario: "network-y", Tier: "surrogate", TimeoutSec: -1}, http.StatusBadRequest},
		{"negative steps", RunRequest{Scenario: "network-y", Tier: "surrogate", Steps: -1}, http.StatusBadRequest},
		{"negative ranks", RunRequest{Scenario: "network-y", Tier: "surrogate", Ranks: -1}, http.StatusBadRequest},
	} {
		body, _ := jsonBody(tc.req)
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
	if st := srv.StatsSnapshot(); st.Requests != 0 || len(st.Tiers) != 0 {
		t.Fatalf("refused requests reached the ledger: %+v", st)
	}
	if ids, _ := store.List(); len(ids) != 0 {
		t.Fatalf("refused requests were stored: %v", ids)
	}
}

func TestSurrogateCalibrationConfig(t *testing.T) {
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
	srv := New(Config{Ranks: 1, Workers: 1, Calibration: path}, NewMemStore(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, res := postRun(t, ts.URL, RunRequest{Scenario: "network-y", Tier: "surrogate"})
	if res.Status != "ok" || !res.Surrogate.Calibrated {
		t.Fatalf("calibrated result: %+v", res.Surrogate)
	}

	// Uncalibrated server: same request, 1/0.9 larger max velocity.
	srv2 := New(Config{Ranks: 1, Workers: 1}, NewMemStore(), nil)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	_, res2 := postRun(t, ts2.URL, RunRequest{Scenario: "network-y", Tier: "surrogate"})
	if res2.Surrogate.Calibrated {
		t.Fatal("uncalibrated server reported a calibration")
	}
	ratio := res.Surrogate.MaxVelocity / res2.Surrogate.MaxVelocity
	if math.Abs(ratio-0.9) > 1e-12 {
		t.Fatalf("calibration factor not applied: ratio %g, want 0.9", ratio)
	}

	// A broken artifact path fails the request, not the process.
	srv3 := New(Config{Calibration: filepath.Join(t.TempDir(), "missing.gob")}, NewMemStore(), nil)
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	body, _ := jsonBody(RunRequest{Scenario: "network-y", Tier: "surrogate"})
	resp, err := http.Post(ts3.URL+"/v1/runs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("missing artifact: HTTP %d", resp.StatusCode)
	}
}

func TestSurrogateRefusedWhileDraining(t *testing.T) {
	srv := New(Config{Ranks: 1, Workers: 1}, NewMemStore(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	body, _ := jsonBody(RunRequest{Scenario: "network-y", Tier: "surrogate"})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted a surrogate request: HTTP %d", resp.StatusCode)
	}
}
