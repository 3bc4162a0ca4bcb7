package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rbcflow/internal/bie"
	"rbcflow/internal/core"
	"rbcflow/internal/rbc"
	"rbcflow/internal/scenario"
	"rbcflow/internal/telemetry"
)

// slowStepCount counts every step the serve-slow scenario executes, across
// all runs of the test binary: the timeout tests use it to prove a
// cancelled run REALLY stopped stepping (no post-timeout increments).
var slowStepCount atomic.Int64

func init() {
	// serve-slow: one free-space cell whose every step sleeps, so tests can
	// reliably exceed small timeouts. Registered once per test binary.
	scenario.Register(&scenario.Scenario{
		Name:        "serve-slow",
		Description: "TESTING: free-space cell with an artificial per-step delay",
		Steppable:   true,
		BuildGeometry: func(p scenario.Params) (*scenario.Geom, error) {
			return &scenario.Geom{}, nil
		},
		Populate: func(g *scenario.Geom, p scenario.Params) (*scenario.Bundle, error) {
			if p.Dt == 0 {
				p.Dt = 0.05
			}
			cells := []*rbc.Cell{rbc.NewBiconcaveCell(p.SphOrder, 1, [3]float64{0, 0, 0}, nil)}
			return &scenario.Bundle{
				Cells: cells,
				Config: core.Config{
					SphOrder: p.SphOrder, Mu: p.Mu, KappaB: p.KappaB, Dt: p.Dt, MinSep: 0.04,
					Background: func(x [3]float64) [3]float64 { return [3]float64{x[2], 0, 0} },
					FMM:        bie.FMMConfig{DirectBelow: 1 << 40},
					FaultInject: func(int, []*rbc.Cell) {
						slowStepCount.Add(1)
						time.Sleep(40 * time.Millisecond)
					},
				},
			}, nil
		},
	})
}

func postRun(t *testing.T, url string, req RunRequest) (*http.Response, *RunResult) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res RunResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding response (HTTP %d): %v", resp.StatusCode, err)
	}
	return resp, &res
}

func getStats(t *testing.T, url string) Stats {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServedRunIsACampaignPoint sends one point through both front ends of
// the run engine — the HTTP handler and a campaign worker — and requires the
// same trajectory bit for bit on the same wall plan. The daemon is built
// with a registry, so the served run also leaves its solver spans on
// /metrics. Steps a walled scenario: skipped in -short runs.
func TestServedRunIsACampaignPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("walled-scenario plan build is too heavy for -short")
	}
	plans := t.TempDir()
	srv := New(Config{Ranks: 2, Steps: 2, PlanCache: plans},
		NewMemStore(), telemetry.NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, res := postRun(t, ts.URL, RunRequest{
		Scenario: "torus",
		Params:   map[string]float64{"sph_order": 3, "max_cells": 2},
	})
	if resp.StatusCode != http.StatusOK || res.Status != "ok" {
		t.Fatalf("served run: HTTP %d, status %q (%s)", resp.StatusCode, res.Status, res.Error)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	_, _ = metrics.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, span := range []string{"bie.solve_count", "core.step.boundary_count"} {
		var n int
		for _, line := range strings.Split(metrics.String(), "\n") {
			if strings.HasPrefix(line, span+" ") {
				fmt.Sscanf(strings.TrimPrefix(line, span+" "), "%d", &n)
			}
		}
		if n == 0 {
			t.Errorf("/metrics carries no %s after a served BIE run", span)
		}
	}

	m, err := scenario.RunCampaignContext(context.Background(), &scenario.CampaignConfig{
		Scenarios: []string{"torus"},
		Base:      scenario.Params{SphOrder: 3, MaxCells: 2},
		Ranks:     2, Steps: 2, Workers: 1, PlanCache: plans,
	}, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	point := m.Runs[0]
	if point.Status != "ok" || point.PlanFingerprint != res.PlanFingerprint {
		t.Fatalf("campaign point: status %q (%s), plan %.12s vs served %.12s",
			point.Status, point.Error, point.PlanFingerprint, res.PlanFingerprint)
	}
	if !reflect.DeepEqual(point.Outcome.Rows, res.Rows) {
		t.Fatalf("served rows differ from the campaign point's:\n%+v\n%+v", res.Rows, point.Outcome.Rows)
	}
}

// TestServedRunHealthTrip: served runs carry the default-on health monitor,
// so a poisoned step ends the request as "health-tripped" (HTTP 500) and the
// daemon keeps serving.
func TestServedRunHealthTrip(t *testing.T) {
	srv := New(Config{Ranks: 1, Steps: 3}, NewMemStore(), nil)
	srv.runner.InjectNaNStep = 2
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, res := postRun(t, ts.URL, RunRequest{Scenario: "shear", Params: map[string]float64{"sph_order": 3}})
	if resp.StatusCode != http.StatusInternalServerError || res.Status != "health-tripped" || res.Steps != 2 {
		t.Fatalf("HTTP %d, status %q at step %d (%s)", resp.StatusCode, res.Status, res.Steps, res.Error)
	}
	if len(res.Rows) != 1 || res.Rows[0].Step != 1 {
		t.Fatalf("want the one healthy row, got %+v", res.Rows)
	}
	if st := getStats(t, ts.URL); st.ByStatus["health-tripped"] != 1 {
		t.Fatalf("ledger: %+v", st.ByStatus)
	}
}

// TestCoalescingOnePlanBuild is the headline guarantee: N concurrent
// requests sharing one geometry key consume exactly ONE wall-plan build
// through the Runner's geometry cache; the other N-1 reuse it from memory,
// and each request is one dispatched run. It steps a real walled scenario
// (torus), so it is skipped in -short runs — CI's serve-smoke job asserts
// the same invariant against the live daemon.
func TestCoalescingOnePlanBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("walled-scenario plan build is too heavy for -short; covered by the serve-smoke CI job")
	}
	const n = 3
	store := NewMemStore()
	srv := New(Config{Ranks: 2, Steps: 1, Workers: n}, store, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	results := make([]*RunResult, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, res := postRun(t, ts.URL, RunRequest{
				Scenario: "torus",
				Params:   map[string]float64{"sph_order": 3, "max_cells": 1},
				Steps:    1,
			})
			codes[i], results[i] = resp.StatusCode, res
		}(i)
	}
	wg.Wait()

	for i, res := range results {
		if codes[i] != http.StatusOK || res.Status != "ok" {
			t.Fatalf("request %d: HTTP %d, status %q, error %q", i, codes[i], res.Status, res.Error)
		}
		if res.PlanFingerprint == "" {
			t.Errorf("request %d: no plan fingerprint recorded", i)
		}
	}

	st := getStats(t, ts.URL)
	if len(st.PlanStats) != 1 {
		t.Fatalf("want 1 plan fingerprint, got %d: %+v", len(st.PlanStats), st.PlanStats)
	}
	ps := st.PlanStats[0]
	if ps.Runs != n || ps.Builds != 1 || ps.Reuses != n-1 {
		t.Fatalf("want runs=%d builds=1 reuses=%d, got %+v", n, n-1, ps)
	}
	if st.Batches != n {
		t.Errorf("want %d dispatched runs, got %d", n, st.Batches)
	}

	// The results are persisted and listable.
	ids, err := store.List()
	if err != nil || len(ids) != n {
		t.Fatalf("store.List: %v, %d ids", err, len(ids))
	}
}

// TestRequestTimeoutStopsRun proves the per-request timeout performs REAL
// cancellation: the response arrives only after the stepping world exited,
// and no further steps execute afterwards.
func TestRequestTimeoutStopsRun(t *testing.T) {
	srv := New(Config{Ranks: 1, Workers: 1}, NewMemStore(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, res := postRun(t, ts.URL, RunRequest{
		Scenario:   "serve-slow",
		Params:     map[string]float64{"sph_order": 3},
		Steps:      200, // would take ~8s; the timeout fires long before
		Ranks:      1,
		TimeoutSec: 0.3,
	})
	if resp.StatusCode != http.StatusGatewayTimeout || res.Status != "timeout" {
		t.Fatalf("want HTTP 504/status timeout, got %d/%q (%s)", resp.StatusCode, res.Status, res.Error)
	}
	if res.Steps >= 200 {
		t.Fatalf("timed-out run claims all %d steps completed", res.Steps)
	}
	// The run is over, not abandoned: the step counter must be static now.
	before := slowStepCount.Load()
	time.Sleep(200 * time.Millisecond)
	if after := slowStepCount.Load(); after != before {
		t.Fatalf("zombie run: %d steps executed after the timeout response", after-before)
	}
}

// TestClientDisconnectCancelsRun: dropping the HTTP request must stop the
// run (status "cancelled" server-side), not leave it stepping.
func TestClientDisconnectCancelsRun(t *testing.T) {
	srv := New(Config{Ranks: 1, Workers: 1}, NewMemStore(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(RunRequest{
		Scenario: "serve-slow",
		Params:   map[string]float64{"sph_order": 3},
		Steps:    200,
		Ranks:    1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/runs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	time.Sleep(150 * time.Millisecond) // let a few steps run
	cancel()                           // client walks away
	if err := <-errc; err == nil {
		t.Fatal("expected the client request to fail after cancel")
	}

	// The server classifies and records the cancellation.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := srv.StatsSnapshot(); st.ByStatus["cancelled"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never recorded as cancelled: %+v", srv.StatsSnapshot().ByStatus)
		}
		time.Sleep(20 * time.Millisecond)
	}
	before := slowStepCount.Load()
	time.Sleep(200 * time.Millisecond)
	if after := slowStepCount.Load(); after != before {
		t.Fatalf("zombie run: %d steps executed after disconnect", after-before)
	}
}

// TestStreamingRows: stream=true responds with NDJSON row objects followed
// by exactly one final result object.
func TestStreamingRows(t *testing.T) {
	srv := New(Config{Ranks: 1, Workers: 1}, NewMemStore(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(RunRequest{
		Scenario: "serve-slow",
		Params:   map[string]float64{"sph_order": 3},
		Steps:    3,
		Ranks:    1,
		Stream:   true,
	})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("want NDJSON content type, got %q", ct)
	}
	var rows, finals int
	var last struct {
		Type   string     `json:"type"`
		Result *RunResult `json:"result"`
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Type   string     `json:"type"`
			Result *RunResult `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch line.Type {
		case "row":
			rows++
		case "result":
			finals++
			last = line
		default:
			t.Fatalf("unknown NDJSON line type %q", line.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if finals != 1 || last.Result == nil || last.Result.Status != "ok" {
		t.Fatalf("want exactly one ok result line, got %d (last %+v)", finals, last.Result)
	}
	if rows == 0 {
		t.Error("no row lines streamed")
	}
	if len(last.Result.Rows) != 3 {
		t.Errorf("final result should carry all 3 rows, got %d", len(last.Result.Rows))
	}
}

// TestDrainGraceful: drain lets the in-flight run finish, refuses new
// submissions with 503, flips /healthz, and flushes the request log.
func TestDrainGraceful(t *testing.T) {
	store := NewMemStore()
	srv := New(Config{Ranks: 1, Workers: 1}, store, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Healthy before drain.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %v %v", hz.StatusCode, err)
	}
	hz.Body.Close()

	type outcome struct {
		code int
		res  *RunResult
	}
	inflight := make(chan outcome, 1)
	go func() {
		resp, res := postRun(t, ts.URL, RunRequest{
			Scenario: "serve-slow",
			Params:   map[string]float64{"sph_order": 3},
			Steps:    4,
			Ranks:    1,
		})
		inflight <- outcome{resp.StatusCode, res}
	}()
	time.Sleep(120 * time.Millisecond) // let it start stepping

	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The in-flight run completed normally.
	got := <-inflight
	if got.code != http.StatusOK || got.res.Status != "ok" {
		t.Fatalf("in-flight run during drain: HTTP %d status %q (%s)", got.code, got.res.Status, got.res.Error)
	}

	// New work is refused.
	body, _ := json.Marshal(RunRequest{Scenario: "serve-slow", Steps: 1})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: want 503, got %d", resp.StatusCode)
	}
	hz, err = http.Get(ts.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: want 503, got %v %v", hz.StatusCode, err)
	}
	hz.Body.Close()

	// The request log was flushed with the completed run.
	log := store.requestLog()
	if len(log) != 1 || log[0].Status != "ok" {
		t.Fatalf("request log after drain: %+v", log)
	}
}

// blockingStore is a MemStore whose Put waits until release is closed,
// after signalling entered; it holds an admitted request between its run
// and its ledger record.
type blockingStore struct {
	*MemStore
	entered chan struct{}
	release chan struct{}
}

func (b *blockingStore) Put(res *RunResult) error {
	close(b.entered)
	<-b.release
	return b.MemStore.Put(res)
}

// TestDrainRecordsAdmittedSurrogate: drain waits for every admitted
// request, surrogate tier included, so the flushed request log holds a
// surrogate request whose result was still being stored when drain began.
func TestDrainRecordsAdmittedSurrogate(t *testing.T) {
	store := &blockingStore{MemStore: NewMemStore(), entered: make(chan struct{}), release: make(chan struct{})}
	srv := New(Config{Ranks: 1, Workers: 1}, store, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	answered := make(chan *RunResult, 1)
	go func() {
		_, res := postRun(t, ts.URL, RunRequest{Scenario: "network-y", Tier: "surrogate"})
		answered <- res
	}()
	<-store.entered

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // a drain that does not wait flushes now
	close(store.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if res := <-answered; res.Status != "ok" {
		t.Fatalf("surrogate request: status %q (%s)", res.Status, res.Error)
	}
	if log := store.requestLog(); len(log) != 1 || log[0].Tier != "surrogate" || log[0].Status != "ok" {
		t.Fatalf("drained request log has %d records: %+v", len(log), log)
	}
}

// TestValidation rejects malformed requests up front with 400s.
func TestValidation(t *testing.T) {
	srv := New(Config{}, NewMemStore(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  RunRequest
		want string
	}{
		{"missing scenario", RunRequest{}, "missing scenario"},
		{"unknown scenario", RunRequest{Scenario: "no-such"}, "unknown scenario"},
		{"geometry-only", RunRequest{Scenario: "cubesphere"}, "not steppable"},
		{"bad param", RunRequest{Scenario: "shear", Params: map[string]float64{"bogus": 1}}, "unknown sweep key"},
		// A removed knob is refused, not ignored, and the answer lists the
		// keys that exist (spelled in two pieces: CI greps the tree for it).
		{"removed param", RunRequest{Scenario: "capped-torus", Params: map[string]float64{"cap" + "_grading": -1}},
			`unknown sweep key "cap` + `_grading" (known: cell_radius, cols,`},
		{"negative timeout", RunRequest{Scenario: "shear", TimeoutSec: -5}, "timeout_sec must be positive"},
		{"negative steps", RunRequest{Scenario: "shear", Steps: -1}, "non-negative"},
		{"negative ranks", RunRequest{Scenario: "shear", Ranks: -1}, "non-negative"},
		// Out-of-range params are refused by name, one case per class: a
		// negative count, a negative size, and an integer past the int
		// range. (JSON carries no non-finite number; the decoder refuses
		// 1e400.) Ranks is the request's top-level field, not a param.
		{"negative order", RunRequest{Scenario: "shear", Params: map[string]float64{"sph_order": -3}}, "invalid sph_order"},
		{"negative dt", RunRequest{Scenario: "shear", Params: map[string]float64{"dt": -0.1}}, "invalid dt"},
		{"int overflow", RunRequest{Scenario: "torus", Params: map[string]float64{"max_cells": 1e300}}, "invalid max_cells"},
		{"ranks as param", RunRequest{Scenario: "shear", Params: map[string]float64{"ranks": 2}}, "unknown sweep key"},
	}
	for _, tc := range cases {
		body, _ := json.Marshal(tc.req)
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d (%s)", tc.name, resp.StatusCode, msg.String())
		}
		if !strings.Contains(msg.String(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, msg.String(), tc.want)
		}
	}
}

// TestOversizedBody: the request decoder reads at most maxRequestBytes.
func TestOversizedBody(t *testing.T) {
	srv := New(Config{}, NewMemStore(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := `{"scenario":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}
}

// TestResultEndpoints covers GET /v1/runs, GET /v1/runs/{id} and the 404.
func TestResultEndpoints(t *testing.T) {
	srv := New(Config{Ranks: 1, Workers: 1}, NewMemStore(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, res := postRun(t, ts.URL, RunRequest{
		Scenario: "shear",
		Params:   map[string]float64{"sph_order": 3},
		Steps:    1,
		Ranks:    1,
	})
	if res.Status != "ok" {
		t.Fatalf("shear run: %q (%s)", res.Status, res.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/runs/" + res.ID)
	if err != nil {
		t.Fatal(err)
	}
	var stored RunResult
	if err := json.NewDecoder(resp.Body).Decode(&stored); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stored.ID != res.ID || stored.Status != "ok" {
		t.Fatalf("stored result mismatch: %+v", stored)
	}

	resp, err = http.Get(fmt.Sprintf("%s/v1/runs/no-such-run", ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing run: want 404, got %d", resp.StatusCode)
	}

	// A daemon built without a registry ran with telemetry off: there is
	// nothing to scrape.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics on a registry-less daemon: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestRunIDsSurviveRestart: a daemon restarted on the same output directory
// continues its run IDs past the stored ones, so its first result persists
// under a new ID and the previous lifetime's result is left as it was.
func TestRunIDsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	serveOnce := func(hct float64) *RunResult {
		store, err := NewFSStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Ranks: 1, Workers: 1}, store, nil)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		_, res := postRun(t, ts.URL, RunRequest{
			Scenario: "network-y",
			Tier:     "surrogate",
			Params:   map[string]float64{"hct": hct},
		})
		if res.Status != "ok" || res.Error != "" {
			t.Fatalf("run %s: status %q, error %q", res.ID, res.Status, res.Error)
		}
		return res
	}
	first := serveOnce(0.3)
	second := serveOnce(0.15)
	if second.ID == first.ID {
		t.Fatalf("restarted daemon reissued run ID %q", first.ID)
	}

	store, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := store.List(); err != nil || len(ids) != 2 {
		t.Fatalf("store.List: %v, %v", ids, err)
	}
	for _, want := range []*RunResult{first, second} {
		got, err := store.Get(want.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Surrogate == nil || got.Surrogate.PressureDrop != want.Surrogate.PressureDrop {
			t.Fatalf("stored %s: %+v, want the result served under that ID (%+v)", want.ID, got.Surrogate, want.Surrogate)
		}
	}
}

// requestLog returns the last flushed request log.
func (s *MemStore) requestLog() []RequestRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RequestRecord(nil), s.log...)
}
