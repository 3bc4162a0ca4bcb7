package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rbcflow/internal/scenario"
	"rbcflow/internal/serve"
)

// serveWorkload is the served-request workload: an in-process daemon behind
// httptest, driven closed-loop by a fixed number of clients (each sends its
// next request only when the previous one has been answered).
type serveWorkload struct {
	name string
	// BIE-tier request class: every request names the same geometry (so all
	// of them share one wall plan) and differs in its cell seed.
	bieScenario string
	bieParams   map[string]float64
	steps       int
	// wantPlanBuilds is how many plan builds the daemon's ledger must show
	// for that geometry: exactly 1 when it has a wall.
	wantPlanBuilds int
	// Surrogate-tier request classes: network-tree at a depth on the dense-LU
	// side and one on the sparse CSR+CG side of the solver's node threshold.
	denseDepth, sparseDepth float64
	clients                 int
}

func serveMix() *serveWorkload {
	return &serveWorkload{
		name:           "serve_mix",
		bieScenario:    "torus",
		bieParams:      map[string]float64{"max_cells": 8},
		steps:          3,
		wantPlanBuilds: 1,
		denseDepth:     10, // 2047 segments
		sparseDepth:    14, // 32767 segments
		clients:        2,
	}
}

// counts converts --seconds into request counts: at the seed commit a
// BIE-tier request takes ~2 s and the two surrogate classes ~0.1 s and
// ~0.05 s, so 8 + 2×50 requests over two clients measure for about 12 s;
// like the simulations' 8 steps, that is the floor, reached at 16 s.
func (w *serveWorkload) counts(seconds int) (nBIE, nSurPerClass int) {
	nBIE = int(math.Round(float64(seconds) / 2))
	if nBIE < 8 {
		nBIE = 8
	}
	nSurPerClass = int(math.Round(float64(seconds) * 50 / 16))
	if nSurPerClass < 50 {
		nSurPerClass = 50
	}
	return
}

type serveOpts struct {
	seed               int64
	nBIE, nSurPerClass int
	traced             bool
	tmpDir, outDir     string
}

// reqOut is one answered request as the client saw it.
type reqOut struct {
	class   string
	latency float64
	res     *serve.RunResult
	problem string // non-empty: the request failed, and why
}

func post(client *http.Client, url string, req serve.RunRequest) (*serve.RunResult, error) {
	blob, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(url+"/v1/runs", "application/json", bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var res serve.RunResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("HTTP %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || res.Status != "ok" {
		return &res, fmt.Errorf("HTTP %d, status %q: %s", resp.StatusCode, res.Status, res.Error)
	}
	return &res, nil
}

// checkResult applies the output checks of one request class.
func (w *serveWorkload) checkResult(class string, res *serve.RunResult) string {
	if class == "bie" {
		if len(res.Rows) != w.steps {
			return fmt.Sprintf("%s: %d rows, want %d", res.ID, len(res.Rows), w.steps)
		}
		for _, r := range res.Rows {
			if math.IsNaN(r.VolumeErr) || math.Abs(r.VolumeErr) > maxVolumeErr || !finite3([3]float64{r.MeanX, r.MeanY, r.MeanZ}) {
				return fmt.Sprintf("%s: step %d: VolumeErr %.3g or non-finite centroid", res.ID, r.Step, r.VolumeErr)
			}
		}
		return ""
	}
	s := res.Surrogate
	if s == nil || !s.Converged || !(s.FlowImbalance <= 1e-9) {
		return fmt.Sprintf("%s: surrogate result not converged or flow imbalance above 1e-9: %+v", res.ID, s)
	}
	return ""
}

type job struct {
	class string
	req   serve.RunRequest
}

// drive sends the jobs from w.clients closed-loop clients and returns the
// answers (in completion order) and the wall time of the whole phase.
func (w *serveWorkload) drive(client *http.Client, url string, jobs []job, recs []*Recorder) ([]reqOut, float64) {
	var mu sync.Mutex
	var outs []reqOut
	next := 0
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci := 0; ci < w.clients; ci++ {
		wg.Add(1)
		go func(rec *Recorder) {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(jobs) {
					mu.Unlock()
					return
				}
				j := jobs[next]
				next++
				mu.Unlock()

				start := rec.now()
				stop := rec.Begin("serve.request." + j.class)
				t := time.Now()
				res, err := post(client, url, j.req)
				o := reqOut{class: j.class, latency: time.Since(t).Seconds(), res: res}
				if rec != nil && res != nil {
					// The server's own split of the request, as children.
					id := rec.open()
					rec.Add(id, "serve.queue", start, start+res.Timing.QueueSec)
					rec.Add(id, "serve.run", start+res.Timing.QueueSec, start+res.Timing.QueueSec+res.Timing.RunSec)
				}
				stop()
				switch {
				case err != nil:
					o.problem = fmt.Sprintf("%s request: %v", j.class, err)
				default:
					o.problem = w.checkResult(j.class, res)
				}
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}(recs[ci])
	}
	wg.Wait()
	return outs, time.Since(t0).Seconds()
}

func (w *serveWorkload) bieRequest(seed int64) serve.RunRequest {
	p := map[string]float64{"seed": float64(seed)}
	for k, v := range w.bieParams {
		p[k] = v
	}
	return serve.RunRequest{Scenario: w.bieScenario, Params: p}
}

func latencies(outs []reqOut, class string) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.class == class && o.res != nil {
			xs = append(xs, o.latency)
		}
	}
	return xs
}

func runServe(w *serveWorkload, o serveOpts) (*result, error) {
	res := newResult()
	rng := rand.New(rand.NewSource(o.seed))
	recs := make([]*Recorder, w.clients)
	if o.traced {
		epoch := time.Now()
		for i := range recs {
			recs[i] = newRecorder(fmt.Sprintf("%s/seed%d/client%d", w.name, o.seed, i), epoch)
		}
	}

	// Set-up: daemon start plus the warm-up request, which pays the geometry
	// and the cold plan build every later BIE-tier request reuses.
	planDir := filepath.Join(o.tmpDir, "plans")
	t0 := time.Now()
	srv := serve.New(serve.Config{Ranks: 1, Steps: w.steps, Workers: w.clients, PlanCache: planDir},
		serve.NewMemStore(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx) // nothing is in flight; the log goes to a MemStore
	}()
	client := ts.Client()
	warm, err := post(client, ts.URL, w.bieRequest(o.seed*1000))
	res.e2e["setup_s"] = time.Since(t0).Seconds()
	res.attempted = 1
	if err != nil {
		res.fail(1, "warm-up request: %v", err)
	} else if p := w.checkResult("bie", warm); p != "" {
		res.fail(1, "warm-up request: %s", p)
	}

	var heap0 uint64
	if o.traced {
		heap0 = heapAfterGC()
	}

	// Phase A: BIE-tier requests, same geometry, distinct cell seeds.
	var jobsA []job
	for i := 0; i < o.nBIE; i++ {
		jobsA = append(jobsA, job{"bie", w.bieRequest(o.seed*1000 + int64(i) + 1)})
	}
	rng.Shuffle(len(jobsA), func(i, j int) { jobsA[i], jobsA[j] = jobsA[j], jobsA[i] })
	outsA, wallA := w.drive(client, ts.URL, jobsA, recs)

	// Phase B: surrogate-tier requests, dense-path and sparse-path depths.
	var jobsB []job
	for i := 0; i < o.nSurPerClass; i++ {
		for _, cl := range []struct {
			class string
			depth float64
		}{{"sur_dense", w.denseDepth}, {"sur_sparse", w.sparseDepth}} {
			jobsB = append(jobsB, job{cl.class, serve.RunRequest{Scenario: "network-tree",
				Tier: scenario.TierSurrogate, Params: map[string]float64{"depth": cl.depth}}})
		}
	}
	rng.Shuffle(len(jobsB), func(i, j int) { jobsB[i], jobsB[j] = jobsB[j], jobsB[i] })
	outsB, wallB := w.drive(client, ts.URL, jobsB, recs)

	outs := append(outsA, outsB...)
	res.attempted += len(outs)
	for _, ro := range outs {
		if ro.problem != "" {
			res.fail(1, "%s", ro.problem)
		}
	}
	bie := latencies(outs, "bie")
	res.e2e["unit_s"] = median(bie)
	res.e2e["run_s"] = wallA + wallB

	// The daemon's own ledger: one plan build for the shared geometry.
	st := srv.StatsSnapshot()
	builds, reuses := 0, 0
	for _, ps := range st.PlanStats {
		builds += ps.Builds
		reuses += ps.Reuses
	}
	if builds != w.wantPlanBuilds || len(st.PlanStats) > 1 {
		res.fail(1, "daemon ledger shows %d plan builds over %d fingerprints, want %d over one",
			builds, len(st.PlanStats), w.wantPlanBuilds)
	}

	if o.traced {
		L := res.layer
		dense, sparse := latencies(outs, "sur_dense"), latencies(outs, "sur_sparse")
		L["serve.bie_req_s"] = median(bie)
		L["serve.bie_burst_s"] = wallA
		L["serve.sur_dense_req_s"] = median(dense)
		L["serve.sur_sparse_req_s"] = median(sparse)
		L["serve.sur_dense_tail_s"] = percentile(dense, tailPercentile(len(dense)))
		L["serve.sur_sparse_tail_s"] = percentile(sparse, tailPercentile(len(sparse)))
		var queue, run []float64
		for _, ro := range outsA {
			if ro.res != nil {
				queue = append(queue, ro.res.Timing.QueueSec)
				run = append(run, ro.res.Timing.RunSec)
			}
		}
		L["serve.queue_s"] = median(queue)
		L["serve.run_s"] = median(run)
		L["serve.plan_builds"] = float64(builds)
		L["serve.plan_reuses"] = float64(reuses)
		L["serve.batches"] = float64(st.Batches)
		L["serve.heap_growth_mb"] = (float64(heapAfterGC()) - float64(heap0)) / (1 << 20)

		bare, err := w.bareExecute(o.seed*1000+1, planDir)
		if err != nil {
			return nil, err
		}
		L["serve.overhead_s"] = median(bie) - bare
		if err := w.surrogateDirect(res); err != nil {
			return nil, err
		}
		L["proc.peak_rss_mb"] = peakRSSMB()
		path, err := writeTrace(o.outDir, w.name, o.seed, recs...)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "trace: %s\n", path)
	}
	return res, nil
}

func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// bareExecute is what a BIE-tier request costs without the service around
// it: the same bundle through scenario.ExecuteContext with the plan loaded
// from the daemon's disk cache, alone on the machine (median of 3).
func (w *serveWorkload) bareExecute(seed int64, planDir string) (float64, error) {
	var p scenario.Params
	for k, v := range w.bieRequest(seed).Params {
		if err := p.Set(k, v); err != nil {
			return 0, err
		}
	}
	b, err := scenario.Build(w.bieScenario, p)
	if err != nil {
		return 0, err
	}
	var walls []float64
	for i := 0; i < 3; i++ {
		e := execute(b, w.steps, 1, planDir)
		if e.err != nil {
			return 0, e.err
		}
		walls = append(walls, e.wallS)
	}
	return median(walls[1:]), nil // the first call loads the plan from disk
}

// surrogateDirect times the reduced-order solver without the service: the
// call the daemon's fast path makes, at both depths (median of 5).
func (w *serveWorkload) surrogateDirect(res *result) error {
	L := res.layer
	for _, cl := range []struct {
		metric string
		depth  float64
		sparse bool
	}{{"surrogate.solve_dense_s", w.denseDepth, false}, {"surrogate.solve_sparse_s", w.sparseDepth, true}} {
		var p scenario.Params
		if err := p.Set("depth", cl.depth); err != nil {
			return err
		}
		var walls []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			_, sr, err := scenario.RunSurrogate("network-tree", p, nil)
			if err != nil {
				return err
			}
			walls = append(walls, time.Since(t0).Seconds())
			if sr.Sparse != cl.sparse {
				res.fail(1, "network-tree depth %g took the sparse=%v solver path, want sparse=%v", cl.depth, sr.Sparse, cl.sparse)
			}
			L["surrogate.iters"] = math.Max(L["surrogate.iters"], float64(sr.Iters))
			L["surrogate.flow_imbalance"] = math.Max(L["surrogate.flow_imbalance"], sr.FlowImbalance)
		}
		L[cl.metric] = median(walls)
	}
	return nil
}
