// Package serve implements the simulation-as-a-service daemon: an HTTP/JSON
// front end over the scenario registry.
//
// Every request, on either tier, is mapped to a scenario.RunSpec, executed
// by the daemon's one scenario.Runner, and mapped back from its RunRecord;
// this package owns the wire types, the admission and the ledger, not the
// run.
//
// Run requests whose (scenario, GeometryKey) match share one geometry — and
// therefore one wall-operator quadrature plan — through the Runner's
// per-geometry cache: the first run builds (or disk-loads) it, every later
// run reuses it from memory, whenever it arrives. A BIE-tier request waits
// only for one of Workers execution slots; a surrogate-tier request runs at
// once.
//
// Cancellation is real end to end. A request's context (client disconnect),
// its per-request timeout, and a server abort all thread down to
// core.Config.Ctx, where every rank observes the cancellation collectively
// at the next step boundary — the stepping world actually exits; nothing is
// abandoned to burn CPU in the background.
//
// Drain is graceful: new submissions are refused (503), every admitted
// request of either tier finishes and is recorded, and the request log is
// flushed to the ResultStore.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rbcflow/internal/scenario"
	"rbcflow/internal/surrogate"
	"rbcflow/internal/telemetry"
)

// Config shapes the daemon. Zero values take the defaults noted per field.
type Config struct {
	// Ranks / Steps are per-run defaults, overridable per request.
	Ranks int // default 2
	Steps int // default 3

	// Workers bounds how many BIE-tier runs may step concurrently (default
	// 2). Requests past the bound wait without holding any compute.
	Workers int

	// RequestTimeout is the default per-run time budget in seconds
	// (0 = none); a request's explicit timeout_sec overrides it.
	RequestTimeout float64

	// PlanCache mirrors scenario.RunOptions: the content-addressed
	// wall-plan disk cache directory.
	PlanCache string

	// Calibration is the path of a surrogate calibration artifact applied to
	// every surrogate-tier request (empty = uncorrected velocities). Loaded
	// lazily on the first surrogate request, once.
	Calibration string
}

func (c *Config) defaults() {
	if c.Ranks <= 0 {
		c.Ranks = 2
	}
	if c.Steps <= 0 {
		c.Steps = 3
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
}

// RunRequest is the POST /v1/runs payload.
type RunRequest struct {
	Scenario string `json:"scenario"`
	// Params are sweep-style key/value pairs (see scenario.SweepKeys).
	Params map[string]float64 `json:"params,omitempty"`
	Steps  int                `json:"steps,omitempty"`
	Ranks  int                `json:"ranks,omitempty"`
	// TimeoutSec caps the run's wall time; 0 inherits the server default,
	// negative is rejected (mirroring campaign config validation).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Stream switches the response to NDJSON: one observable row object per
	// completed step as it happens, then the final result object.
	Stream bool `json:"stream,omitempty"`
	// Tier selects the simulation tier: "" or "bie" runs the full pipeline
	// on one of the Workers execution slots; "surrogate" answers from the
	// reduced-order network solver at once (sub-millisecond, no slot, no
	// geometry, no wall plan).
	Tier string `json:"tier,omitempty"`
}

// RequestTiming is the flat per-request latency record: queue wait (arrival
// to execution slot), time inside the run engine, and end-to-end total.
type RequestTiming struct {
	QueueSec float64 `json:"queue_sec"`
	RunSec   float64 `json:"run_sec"`
	TotalSec float64 `json:"total_sec"`
}

// RunResult is one completed request: persisted in the ResultStore, served
// by /v1/runs/{id}, and (for streaming clients) the final NDJSON object.
type RunResult struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	// Status is "ok", "failed", "timeout", "cancelled" or "health-tripped".
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	Steps  int    `json:"steps"`
	// PlanFingerprint/PlanSource record the wall plan the run consumed and
	// how: "built", "disk", or "memory" (reused from an earlier or
	// concurrent run on the same geometry).
	PlanFingerprint string            `json:"plan_fingerprint,omitempty"`
	PlanSource      string            `json:"plan_source,omitempty"`
	Rows            []scenario.ObsRow `json:"rows,omitempty"`
	Timing          RequestTiming     `json:"timing"`
	// Tier is the simulation tier that produced the result ("bie" or
	// "surrogate"); Surrogate carries the reduced-order solve summary on the
	// fast path.
	Tier      string            `json:"tier"`
	Surrogate *SurrogateSummary `json:"surrogate,omitempty"`
}

// SurrogateSummary is the reduced-order tier's result payload: convergence,
// conservation, and the headline flow quantities of the solved network.
type SurrogateSummary struct {
	Segments  int     `json:"segments"`
	Iters     int     `json:"iters"`
	Converged bool    `json:"converged"`
	Residual  float64 `json:"residual"`
	// FlowImbalance / RBCImbalance are the worst mass and RBC-flux
	// conservation violations at the converged point.
	FlowImbalance float64 `json:"flow_imbalance"`
	RBCImbalance  float64 `json:"rbc_imbalance"`
	// PressureDrop is max − min nodal pressure; MaxVelocity the worst
	// per-segment |mean velocity| (calibration-corrected when the server has
	// an artifact).
	PressureDrop float64 `json:"pressure_drop"`
	MaxVelocity  float64 `json:"max_velocity"`
	Calibrated   bool    `json:"calibrated,omitempty"`
}

// RequestRecord is one request-log line, flushed on drain.
type RequestRecord struct {
	ID          string        `json:"id"`
	Scenario    string        `json:"scenario"`
	GeometryKey string        `json:"geometry_key,omitempty"`
	Status      string        `json:"status"`
	Tier        string        `json:"tier,omitempty"`
	PlanSource  string        `json:"plan_source,omitempty"`
	Timing      RequestTiming `json:"timing"`
}

// PlanStat aggregates plan provenance per fingerprint, the serve-side
// counterpart of the campaign manifest's plan_stats: Builds counts "built"
// materializations (MUST be 1 per fingerprint when plan sharing works),
// DiskLoads counts cache hits, Reuses counts in-memory shares.
type PlanStat struct {
	Fingerprint string `json:"fingerprint"`
	Runs        int    `json:"runs"`
	Builds      int    `json:"builds"`
	DiskLoads   int    `json:"disk_loads"`
	Reuses      int    `json:"reuses"`
}

// TierStats is the per-tier slice of the request ledger.
type TierStats struct {
	Requests  int64            `json:"requests"`
	Completed int64            `json:"completed"`
	ByStatus  map[string]int64 `json:"by_status,omitempty"`
}

// Stats is the /v1/stats payload.
type Stats struct {
	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	// Batches counts the BIE-tier runs dispatched to the run engine.
	Batches  int64            `json:"batches"`
	ByStatus map[string]int64 `json:"by_status,omitempty"`
	// Tiers splits the ledger per simulation tier; surrogate requests never
	// contribute to Batches or PlanStats.
	Tiers     map[string]*TierStats `json:"tiers,omitempty"`
	PlanStats []PlanStat            `json:"plan_stats,omitempty"`
	Draining  bool                  `json:"draining"`
}

// Server is the daemon: construct with New, mount Handler on an
// http.Server, call Drain on the way out.
type Server struct {
	store  ResultStore
	reg    *telemetry.Registry
	runner *scenario.Runner

	slots chan struct{} // BIE execution slots: at most Workers runs step at once
	// inflight holds every admitted request of either tier until its result
	// is recorded; Drain waits on it.
	inflight sync.WaitGroup

	baseCtx   context.Context // cancelled only by abort: kills in-flight runs
	abort     context.CancelFunc
	drainOnce sync.Once

	mu  sync.Mutex
	seq int // requests accepted this lifetime
	// idBase is the highest numeric ID suffix already in the store when the
	// server started: run IDs continue past it, so a daemon restarted on the
	// same output directory never reissues a stored ID.
	idBase   int
	batches  int64 // BIE-tier runs dispatched to the run engine
	draining bool
	records  []RequestRecord
	byStatus map[string]int64
	byTier   map[string]*TierStats
	plans    map[string]*PlanStat
}

// New builds a Server over the given store (NewMemStore() for ephemeral
// use). reg may be nil (telemetry fully off); when set, serve.* metrics and
// every BIE-tier run's solver spans land in it and the debug endpoints
// (/metrics, /trace, /debug/pprof) are mounted on the handler.
func New(cfg Config, store ResultStore, reg *telemetry.Registry) *Server {
	cfg.defaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		store: store,
		reg:   reg,
		runner: &scenario.Runner{
			Ranks:           cfg.Ranks,
			Steps:           cfg.Steps,
			TimeoutSec:      cfg.RequestTimeout,
			PlanCache:       cfg.PlanCache,
			CalibrationPath: cfg.Calibration,
		},
		slots:    make(chan struct{}, cfg.Workers),
		idBase:   lastStoredSeq(store),
		baseCtx:  ctx,
		abort:    cancel,
		byStatus: map[string]int64{},
		byTier:   map[string]*TierStats{},
		plans:    map[string]*PlanStat{},
	}
	return s
}

// lastStoredSeq returns the highest numeric suffix of the run IDs in store
// (0 for an empty or unreadable store). The suffix is the text after the
// last '-', since scenario names contain '-' themselves.
func lastStoredSeq(store ResultStore) int {
	ids, _ := store.List()
	last := 0
	for _, id := range ids {
		if n, err := strconv.Atoi(id[strings.LastIndexByte(id, '-')+1:]); err == nil && n > last {
			last = n
		}
	}
	return last
}

// Handler returns the daemon's full route set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/runs", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			s.handleSubmit(w, r)
		case http.MethodGet:
			s.handleList(w)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/v1/runs/", s.handleGet)
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.StatsSnapshot())
	})
	mux.HandleFunc("/v1/drain", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		// Drain in the background; the response acknowledges initiation so
		// the client is not held for the full in-flight tail.
		go func() { _ = s.Drain(context.Background()) }()
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if s.reg != nil {
		telemetry.RegisterDebug(mux, s.reg)
	}
	return mux
}

// Draining reports whether the server has begun (or finished) draining.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully winds the daemon down: refuse new submissions, wait for
// every admitted request to finish and be recorded (or ctx to expire), then
// flush the request log. Idempotent; concurrent calls all block until the
// first completes.
func (s *Server) Drain(ctx context.Context) error {
	var err error
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		done := make(chan struct{})
		go func() { s.inflight.Wait(); close(done) }()
		select {
		case <-done:
		case <-ctx.Done():
			// Out of patience: cancel the in-flight runs (they stop at the
			// next step boundary) and wait for the worlds to exit — a
			// drained daemon never leaves a stepping goroutine behind.
			s.abort()
			<-done
			err = ctx.Err()
		}
		s.mu.Lock()
		recs := append([]RequestRecord(nil), s.records...)
		s.mu.Unlock()
		if ferr := s.store.PutRequestLog(recs); err == nil {
			err = ferr
		}
	})
	return err
}

// maxRequestBytes bounds a POST /v1/runs body; a run request is a few
// hundred bytes.
const maxRequestBytes = 1 << 20

// decodeRequest reads one run request of at most maxRequestBytes from
// body. The returned code is the HTTP status of a refusal.
func decodeRequest(w http.ResponseWriter, body io.ReadCloser) (RunRequest, int, error) {
	var req RunRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, body, maxRequestBytes)).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		return req, code, fmt.Errorf("bad request body: %w", err)
	}
	return req, 0, nil
}

// handleSubmit admits a request, runs it, and answers with (or streams) the
// result.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, code, err := decodeRequest(w, r.Body)
	if err != nil {
		http.Error(w, err.Error(), code)
		return
	}
	it, code, err := s.accept(r.Context(), &req)
	if err != nil {
		http.Error(w, err.Error(), code)
		return
	}

	var rows chan scenario.ObsRow
	if req.Stream {
		// The row channel is written from inside the stepping world (rank 0)
		// and MUST NOT block it: generous buffer, drop-on-full. The final
		// result always carries the complete row set regardless.
		rows = make(chan scenario.ObsRow, 256)
		it.spec.OnRow = func(row scenario.ObsRow) {
			select {
			case rows <- row:
			default:
				s.count("serve.stream_rows_dropped")
			}
		}
	}

	go s.dispatch(it)

	if !req.Stream {
		res := <-it.done
		status := http.StatusOK
		if res.Status != "ok" {
			status = statusCode(res.Status)
		}
		writeJSON(w, status, res)
		return
	}

	// NDJSON stream: rows as they commit, then the final result object.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case row := <-rows:
			_ = enc.Encode(map[string]any{"type": "row", "row": row})
			if fl != nil {
				fl.Flush()
			}
		case res := <-it.done:
			for { // drain rows that beat the result onto the channel
				select {
				case row := <-rows:
					_ = enc.Encode(map[string]any{"type": "row", "row": row})
				default:
					_ = enc.Encode(map[string]any{"type": "result", "result": res})
					if fl != nil {
						fl.Flush()
					}
					return
				}
			}
		}
	}
}

// item is one admitted request: the run spec mapped from it, its
// cancellation scope, and the response channel the HTTP handler blocks on.
type item struct {
	spec    scenario.RunSpec
	geomKey string // the scenario's GeometryKey for the request's parameters
	ctx     context.Context
	enq     time.Time
	done    chan *RunResult // buffered(1); exactly one result per item
	// cleanup releases the item's merged cancellation scope (the AfterFunc
	// watching the server base context plus the derived cancel); finish
	// invokes it exactly once, right before delivering the result.
	cleanup func()
}

// errDraining refuses a request once the daemon has begun draining.
var errDraining = errors.New("serve: draining, not accepting new runs")

// tierStat returns the per-tier ledger slice; s.mu must be held.
func (s *Server) tierStat(tier string) *TierStats {
	ts, ok := s.byTier[tier]
	if !ok {
		ts = &TierStats{ByStatus: map[string]int64{}}
		s.byTier[tier] = ts
	}
	return ts
}

// validate maps a request of either tier onto the run engine's spec and
// refuses what the engine would refuse. It admits nothing. The returned code
// is the HTTP status of a refusal.
func (s *Server) validate(req *RunRequest) (scenario.RunSpec, *scenario.Scenario, int, error) {
	spec := scenario.RunSpec{
		Scenario: req.Scenario, Tier: req.Tier,
		Steps: req.Steps, Ranks: req.Ranks, TimeoutSec: req.TimeoutSec,
		Telemetry: s.reg,
	}
	for k, v := range req.Params {
		if err := spec.Params.Set(k, v); err != nil {
			return spec, nil, http.StatusBadRequest, err
		}
	}
	scn, err := spec.Resolve()
	if err != nil {
		return spec, nil, http.StatusBadRequest, err
	}
	if spec.Tier == "" {
		spec.Tier = scenario.TierBIE
	}
	switch {
	case spec.Tier == scenario.TierBIE && !scn.Steppable:
		return spec, nil, http.StatusBadRequest, fmt.Errorf("serve: scenario %q is geometry-only, not steppable", req.Scenario)
	case spec.Tier == scenario.TierSurrogate && req.Stream:
		return spec, nil, http.StatusBadRequest, fmt.Errorf("serve: streaming is a bie-tier feature (surrogate results are a single object)")
	case spec.Tier == scenario.TierSurrogate:
		if _, err := s.runner.LoadCalibration(); err != nil {
			return spec, nil, http.StatusInternalServerError, fmt.Errorf("serve: calibration: %w", err)
		}
	}
	return spec, scn, 0, nil
}

// accept validates a request of either tier and admits it: only a request
// the run engine would take, arriving before drain, gets a run ID, a ledger
// slot, a place in the in-flight group and a cancellation scope. The caller
// must hand an admitted item to dispatch. The returned code is the HTTP
// status of a refusal.
func (s *Server) accept(reqCtx context.Context, req *RunRequest) (*item, int, error) {
	spec, scn, code, err := s.validate(req)
	if err != nil {
		return nil, code, err
	}

	// Admission is one critical section: a request either joins the
	// in-flight group before Drain starts waiting on it, or is refused
	// without a run ID or a ledger slot.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, http.StatusServiceUnavailable, errDraining
	}
	s.inflight.Add(1)
	s.seq++
	spec.ID = fmt.Sprintf("%s-%04d", req.Scenario, s.idBase+s.seq)
	s.tierStat(spec.Tier).Requests++
	s.mu.Unlock()
	s.count("serve.requests_total")
	if spec.Tier == scenario.TierSurrogate {
		s.count("serve.requests_surrogate_tier")
	}

	// The run must stop when the client goes away OR the server aborts:
	// merge both into one cancellation scope.
	ctx, cancel := context.WithCancel(reqCtx)
	stop := context.AfterFunc(s.baseCtx, cancel)
	p := spec.Params
	p.Defaults()
	return &item{
		spec:    spec,
		geomKey: scn.GeometryKey(p),
		ctx:     ctx,
		enq:     time.Now(),
		done:    make(chan *RunResult, 1),
		cleanup: func() { stop(); cancel() },
	}, 0, nil
}

// dispatch runs an admitted request and records its result. The request
// leaves the in-flight group only once its result is stored and in the
// ledger.
func (s *Server) dispatch(it *item) {
	defer s.inflight.Done()
	if it.spec.Tier == scenario.TierSurrogate {
		s.finish(it, s.run(it))
	} else {
		s.finish(it, s.runBIE(it))
	}
}

// runBIE holds a BIE-tier request until an execution slot frees up, then
// hands it to the run engine. A request cancelled while it waits needs no
// slot, because the engine refuses a dead context before doing any work.
func (s *Server) runBIE(it *item) *RunResult {
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	case <-it.ctx.Done():
	}
	s.mu.Lock()
	s.batches++
	s.mu.Unlock()
	queued := time.Since(it.enq).Seconds()
	res := s.run(it)
	res.Timing.QueueSec = queued
	return res
}

// run hands one admitted request to the run engine and maps the record back
// onto the wire type. It is synchronous: returning proves the run's world
// has fully exited, so a "timeout" or "cancelled" result is never followed
// by stray writes.
func (s *Server) run(it *item) *RunResult {
	start := time.Now()
	rec := s.runner.Run(it.ctx, it.spec)
	res := &RunResult{
		ID:       rec.ID,
		Scenario: rec.Scenario,
		Status:   rec.Status,
		Error:    rec.Error,
		Steps:    rec.Steps,
		Tier:     rec.Tier,
		Timing:   RequestTiming{RunSec: time.Since(start).Seconds()},
	}
	if out := rec.Outcome; out != nil {
		// JSON cannot carry NaN/Inf: a health-tripped run's row list ends
		// with the poisoned step, which the result leaves out.
		for _, row := range out.Rows {
			if bad := row.MeanX + row.MeanY + row.MeanZ + row.CellVolume + row.VolumeErr; math.IsNaN(bad) || math.IsInf(bad, 0) {
				break
			}
			res.Rows = append(res.Rows, row)
		}
		res.PlanFingerprint = out.PlanFingerprint
		res.PlanSource = out.PlanSource
	}
	if sr := rec.Surrogate; sr != nil {
		sum := &SurrogateSummary{
			Segments:      sr.Segments,
			Iters:         sr.Iters,
			Converged:     sr.Converged,
			Residual:      sr.Residual,
			FlowImbalance: sr.FlowImbalance,
			RBCImbalance:  sr.RBCImbalance,
			Calibrated:    sr.Calibrated,
		}
		sum.PressureDrop, _ = surrogate.EvalObjective("pressure-drop", rec.Network, rec.Solution)
		sum.MaxVelocity, _ = surrogate.EvalObjective("max-velocity", rec.Network, rec.Solution)
		res.Surrogate = sum
	}
	return res
}

// finish records a completed item of either tier and delivers its result.
func (s *Server) finish(it *item, res *RunResult) {
	res.Timing.TotalSec = time.Since(it.enq).Seconds()
	if err := s.store.Put(res); err != nil {
		// Persistence failure must not eat the result; surface it inline.
		if res.Error == "" {
			res.Error = "store: " + err.Error()
		}
	}
	s.mu.Lock()
	s.byStatus[res.Status]++
	ts := s.tierStat(res.Tier)
	ts.Completed++
	ts.ByStatus[res.Status]++
	if res.PlanFingerprint != "" {
		ps, ok := s.plans[res.PlanFingerprint]
		if !ok {
			ps = &PlanStat{Fingerprint: res.PlanFingerprint}
			s.plans[res.PlanFingerprint] = ps
		}
		ps.Runs++
		switch res.PlanSource {
		case "built":
			ps.Builds++
		case "disk":
			ps.DiskLoads++
		case "memory":
			ps.Reuses++
		}
	}
	s.records = append(s.records, RequestRecord{
		ID:          res.ID,
		Scenario:    res.Scenario,
		GeometryKey: it.geomKey,
		Status:      res.Status,
		Tier:        res.Tier,
		PlanSource:  res.PlanSource,
		Timing:      res.Timing,
	})
	s.mu.Unlock()

	s.count("serve.requests_" + res.Status)
	if s.reg != nil {
		s.reg.Histogram("serve.request_seconds").Observe(res.Timing.TotalSec)
		if res.Tier == scenario.TierBIE {
			s.reg.Histogram("serve.queue_seconds").Observe(res.Timing.QueueSec)
		}
	}
	it.cleanup()
	it.done <- res
}

func (s *Server) count(name string) {
	if s.reg != nil {
		s.reg.Counter(name).Inc()
	}
}

// StatsSnapshot returns the current aggregate view.
func (s *Server) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Requests: int64(s.seq),
		Draining: s.draining,
		ByStatus: map[string]int64{},
	}
	for k, v := range s.byStatus {
		st.ByStatus[k] = v
		st.Completed += v
	}
	for tier, ts := range s.byTier {
		if st.Tiers == nil {
			st.Tiers = map[string]*TierStats{}
		}
		cp := &TierStats{Requests: ts.Requests, Completed: ts.Completed, ByStatus: map[string]int64{}}
		for k, v := range ts.ByStatus {
			cp.ByStatus[k] = v
		}
		st.Tiers[tier] = cp
	}
	st.Batches = s.batches
	for _, ps := range s.plans {
		st.PlanStats = append(st.PlanStats, *ps)
	}
	sort.Slice(st.PlanStats, func(i, j int) bool {
		return st.PlanStats[i].Fingerprint < st.PlanStats[j].Fingerprint
	})
	return st
}

func (s *Server) handleList(w http.ResponseWriter) {
	ids, err := s.store.List()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": ids})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/runs/")
	if id == "" || strings.Contains(id, "/") {
		http.Error(w, "bad run id", http.StatusBadRequest)
		return
	}
	res, err := s.store.Get(id)
	if err != nil {
		if IsNotFound(err) {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// statusCode maps a terminal run status to its HTTP code for non-streaming
// responses (streaming responses already committed 200).
func statusCode(status string) int {
	switch status {
	case "timeout":
		return http.StatusGatewayTimeout
	case "cancelled":
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
