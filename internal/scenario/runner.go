package scenario

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rbcflow/internal/network"
	"rbcflow/internal/par"
	"rbcflow/internal/surrogate"
	"rbcflow/internal/telemetry"
	"rbcflow/internal/trace"
)

// RunSpec names one run: a point of an expanded sweep grid, a served
// request, or a driver invocation.
type RunSpec struct {
	// ID is the deterministic run identity (scenario + sweep coordinates, or
	// the daemon's request id); it names the run's output directory and its
	// trace timelines.
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	Params   Params `json:"params"`
	// Tier is "" or TierBIE for the full boundary-integral pipeline, or
	// TierSurrogate for the reduced-order network solve.
	Tier string `json:"tier,omitempty"`

	// Steps, Ranks and TimeoutSec override the Runner's defaults when
	// positive.
	Steps      int     `json:"-"`
	Ranks      int     `json:"-"`
	TimeoutSec float64 `json:"-"`
	// Telemetry receives the run's metrics (nil = telemetry fully off); a
	// trace recorder attached to it also gets the run's timelines and health
	// events. Campaigns give every run its own registry, the daemon shares
	// its one.
	Telemetry *telemetry.Registry `json:"-"`
	// OnRow is RunOptions.OnRow: the streaming seam of the serve daemon.
	OnRow func(ObsRow) `json:"-"`
	// Bundle, when non-nil, is stepped as is instead of building one through
	// the geometry cache — for drivers that print the geometry before
	// running it.
	Bundle *Bundle `json:"-"`
}

// Resolve validates the spec and returns its scenario. It is the one
// validator of campaign points, served requests and driver runs: Run refuses
// what it refuses, and front ends call it to reject a request before
// admitting it.
func (s RunSpec) Resolve() (*Scenario, error) {
	if s.Scenario == "" {
		return nil, fmt.Errorf("scenario: missing scenario name")
	}
	scn, err := Get(s.Scenario)
	if err != nil {
		return nil, err
	}
	if err := s.Params.Validate(); err != nil {
		return nil, err
	}
	if s.TimeoutSec < 0 {
		return nil, fmt.Errorf("scenario: timeout_sec must be positive, got %g", s.TimeoutSec)
	}
	if s.Steps < 0 || s.Ranks < 0 {
		return nil, fmt.Errorf("scenario: steps and ranks must be non-negative")
	}
	switch s.Tier {
	case "", TierBIE:
	case TierSurrogate:
		if _, ok := networkGraphBuilders[s.Scenario]; !ok {
			return nil, fmt.Errorf("scenario: %q is not a network-family scenario (the surrogate tier solves networks only)", s.Scenario)
		}
	default:
		return nil, fmt.Errorf("scenario: unknown tier %q (want bie or surrogate)", s.Tier)
	}
	return scn, nil
}

// RunRecord is one finished run: the campaign manifest entry, and what the
// serve daemon and the drivers map their own result types from.
type RunRecord struct {
	ID          string `json:"id"`
	Scenario    string `json:"scenario"`
	Params      Params `json:"params"`
	GeometryKey string `json:"geometry_key,omitempty"`
	// Status: "ok", "failed", "timeout" (per-run watchdog fired and the run
	// confirmed it stopped), "cancelled" (the caller's context was cancelled
	// — drain/^C/disconnect — before or during this run), "health-tripped",
	// or "geometry-only" (non-steppable scenarios).
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Health is the run's numerical-health verdict: "ok" when the monitor
	// ran clean, "tripped" when it halted the run (empty when the monitor
	// was disabled). HealthVerdicts lists every verdict (warnings included,
	// deduplicated per check and step — deterministic for a fixed rank
	// count), and Bundle is the postmortem bundle directory of a tripped
	// run, relative to the runner's output dir.
	Health         string   `json:"health,omitempty"`
	HealthVerdicts []string `json:"health_verdicts,omitempty"`
	Bundle         string   `json:"bundle,omitempty"`
	Steps          int      `json:"steps"`
	ResumedFrom    int      `json:"resumed_from"`
	NumCells       int      `json:"num_cells"`
	VirtualTime    float64  `json:"virtual_time"`
	Outputs        []string `json:"outputs,omitempty"`
	// PlanFingerprint is the wall-operator plan this run consumed (empty
	// when none was needed). The per-run source stays out of the manifest
	// (it is aggregated into PlanStats from Outcome.PlanSource): WHICH
	// concurrent worker materializes a shared plan is scheduling-dependent,
	// while the per-fingerprint counts are deterministic.
	PlanFingerprint string `json:"plan_fingerprint,omitempty"`
	// FallbackJunctions counts the junction nodes of a network geometry
	// realized with capsule caps because no blend was feasible there
	// (network.Geometry.FallbackNodes): each splits the wall into components
	// that violate the per-component zero-flux solvability condition.
	FallbackJunctions int `json:"fallback_junctions,omitempty"`

	// Tier is the spec's tier ("surrogate" or "bie" in tiered campaigns;
	// empty in plain ones). Promoted marks a surrogate run whose point was
	// re-run through the BIE tier; Surrogate carries the reduced-order solve
	// summary. TierSeconds is the surrogate solve's wall-clock time — a
	// measurement, like telemetry_seconds, not part of the deterministic
	// manifest core.
	Tier        string           `json:"tier,omitempty"`
	Promoted    bool             `json:"promoted,omitempty"`
	Surrogate   *SurrogateRecord `json:"surrogate,omitempty"`
	TierSeconds float64          `json:"tier_seconds,omitempty"`

	// Telemetry and TelemetryGauges are the deterministic core of the run's
	// final metrics snapshot — counter values and span counts, and gauge
	// values — stripped of the invocation-scoped "bie.plan." prefix, so they
	// are bit-identical across checkpoint/resume for a fixed rank count.
	Telemetry       map[string]int64   `json:"telemetry,omitempty"`
	TelemetryGauges map[string]float64 `json:"telemetry_gauges,omitempty"`
	// TelemetrySeconds reports each span's cumulative wall-clock seconds.
	// Measurements, not part of the deterministic manifest core: they vary
	// run to run and resume to resume.
	TelemetrySeconds map[string]float64 `json:"telemetry_seconds,omitempty"`

	// In-process results for the adapters, never serialized: the BIE tier's
	// outcome (rows, ledger, plan source, full telemetry snapshot) whenever
	// the executor returned one, and the surrogate tier's solved network.
	Outcome  *RunOutcome       `json:"-"`
	Network  *network.Network  `json:"-"`
	Solution *surrogate.Result `json:"-"`
}

// Runner is the one run engine: it turns a RunSpec into a finished,
// classified RunRecord. Campaign workers, the serve daemon and the cmd
// drivers are adapters that map their own types to a RunSpec and a
// RunRecord back; tier dispatch, geometry sharing, populate, the per-run
// watchdog, the health monitor, panic containment and status classification
// happen in Run and nowhere else.
//
// Set the exported fields before the first Run; after that a Runner is safe
// for concurrent use. The zero value runs one rank in memory with the health
// monitor on.
type Runner struct {
	// Ranks, Steps and TimeoutSec (seconds; 0 = no watchdog) are per-run
	// defaults a RunSpec may override.
	Ranks      int
	Steps      int
	TimeoutSec float64
	Machine    par.Machine // zero = SKX

	// OutDir is the root each run writes its <OutDir>/<spec.ID> directory
	// under; empty keeps every run in memory. The remaining fields are
	// RunOptions' of the same name.
	OutDir          string
	CheckpointEvery int
	OutputEvery     int
	NoResume        bool
	PlanCache       string
	InjectNaNStep   int

	// DisableHealth turns the numerical-health monitor off. It is ON by
	// default: every BIE-tier run gets its own monitor, and a fatal trip
	// records status "health-tripped" with the verdicts and the
	// postmortem-bundle path.
	DisableHealth bool

	// CalibrationPath points at the surrogate calibration artifact applied
	// to every surrogate-tier run (empty = uncorrected velocities), loaded
	// once on first use; Calibration overrides it with an in-memory one.
	// Objective, when set, scores every surrogate run (see
	// surrogate.ObjectiveNames).
	CalibrationPath string
	Calibration     *surrogate.Calibration
	Objective       string

	calOnce sync.Once
	calErr  error

	mu    sync.Mutex
	geoms map[string]*geomEntry
}

// geomEntry is one shared geometry materialization. The per-entry Once means
// every run with the same (scenario, GeometryKey) — concurrent campaign
// workers, coalesced or later requests, for the Runner's whole lifetime —
// consumes ONE BuildGeometry result, and therefore one Geom plan-Once: the
// first run to need the wall operator builds (or disk-loads) the quadrature
// plan and every later run reuses it from memory.
type geomEntry struct {
	once sync.Once
	geom *Geom
	err  error
}

func (r *Runner) geometry(key string, build func() (*Geom, error)) (*Geom, error) {
	r.mu.Lock()
	if r.geoms == nil {
		r.geoms = map[string]*geomEntry{}
	}
	e, ok := r.geoms[key]
	if !ok {
		e = &geomEntry{}
		r.geoms[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			// A panicking build must poison the entry with a real error:
			// sync.Once never re-runs, and later waiters would otherwise
			// get (nil, nil) and crash far from the cause.
			if p := recover(); p != nil {
				e.err = fmt.Errorf("geometry build panicked: %v", p)
			}
		}()
		e.geom, e.err = build()
	})
	return e.geom, e.err
}

// LoadCalibration resolves the surrogate calibration artifact once: the
// in-memory one wins, else CalibrationPath is loaded, else nil
// (uncorrected). Front ends call it up front to refuse work under a broken
// artifact; Run calls it for every surrogate-tier spec.
func (r *Runner) LoadCalibration() (*surrogate.Calibration, error) {
	r.calOnce.Do(func() {
		if r.Calibration == nil && r.CalibrationPath != "" {
			r.Calibration, r.calErr = surrogate.LoadCalibration(r.CalibrationPath)
		}
	})
	return r.Calibration, r.calErr
}

func positiveOr[T int | float64](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// Run executes one spec to a classified record. It contains panics, refuses
// a dead context, and enforces the per-run watchdog by REAL context
// cancellation: the run context is threaded down to core.Step, which agrees
// collectively at every step boundary, so a timed-out or cancelled run
// STOPS — no zombie goroutine keeps burning CPU, and nothing (checkpoint,
// CSV, telemetry) is written after the record exists. The call is
// synchronous: it returns only after the run's world has fully exited, which
// is the confirmation a "timeout" or "cancelled" record relies on.
func (r *Runner) Run(ctx context.Context, spec RunSpec) (rec RunRecord) {
	rec = RunRecord{ID: spec.ID, Scenario: spec.Scenario, Params: spec.Params, ResumedFrom: -1, Tier: spec.Tier}
	fail := func(err error) RunRecord {
		rec.Status, rec.Error = "failed", err.Error()
		return rec
	}
	defer func() {
		if e := recover(); e != nil {
			rec.Status, rec.Error = "failed", fmt.Sprintf("panic: %v", e)
		}
	}()
	if ctx.Err() != nil {
		rec.Status, rec.Error = "cancelled", fmt.Sprintf("cancelled before this run started: %v", context.Cause(ctx))
		return rec
	}
	scn, err := spec.Resolve()
	if err != nil {
		return fail(err)
	}
	p := spec.Params
	p.Defaults()
	rec.GeometryKey = scn.GeometryKey(p)

	if spec.Tier == TierSurrogate {
		if err := r.solveSurrogate(&rec, spec); err != nil {
			return fail(err)
		}
		rec.Status = "ok"
		return rec
	}

	timeout := positiveOr(spec.TimeoutSec, r.TimeoutSec)
	runCtx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, time.Duration(timeout*float64(time.Second)))
		defer cancel()
	}
	b := spec.Bundle
	if b == nil {
		geom, err := r.geometry(spec.Scenario+"|"+rec.GeometryKey, func() (*Geom, error) {
			return scn.BuildGeometry(p)
		})
		if err != nil {
			return fail(err)
		}
		if b, err = scn.populate(geom, p); err != nil {
			return fail(err)
		}
	}
	runDir := ""
	if r.OutDir != "" {
		runDir = filepath.Join(r.OutDir, spec.ID)
	}
	if !scn.Steppable {
		// Geometry-only scenarios still emit their wall surface.
		if runDir != "" {
			wallPath := filepath.Join(runDir, "wall.vtk")
			if err := writeFileVTK(wallPath, func(w io.Writer) error {
				return WriteSurfaceVTK(w, b.Surf, wallVTKRes, spec.ID+" wall")
			}); err != nil {
				return fail(err)
			}
			if _, _, err := ValidateVTKFile(wallPath); err != nil {
				return fail(err)
			}
			rec.Outputs = []string{relPath(r.OutDir, wallPath)}
		}
		rec.Status = "geometry-only"
		return rec
	}

	reg := spec.Telemetry
	if b.Geom != nil && b.Geom.NetGeom != nil {
		ng := b.Geom.NetGeom
		rec.FallbackJunctions = len(ng.FallbackNodes)
		reg.Gauge("network.junction.fallback_nodes").Set(float64(len(ng.FallbackNodes)))
		if len(ng.FallbackNodes) > 0 {
			slog.Warn("network: junctions too tight to blend keep capsule caps; the wall components they split off violate per-component flux",
				"scenario", spec.Scenario, "run", spec.ID, "nodes", ng.FallbackNodes, "effective_blend", ng.EffectiveBlend)
		}
	}
	var health *trace.Health
	if !r.DisableHealth {
		health = trace.NewHealth(trace.HealthConfig{
			Log: slog.Default().With("layer", "health", "scenario", spec.Scenario, "run", spec.ID),
		}, trace.FromRegistry(reg), reg)
	}
	outcome, err := ExecuteContext(runCtx, b, RunOptions{
		Ranks:           positiveOr(spec.Ranks, r.Ranks),
		Machine:         r.Machine,
		Steps:           positiveOr(spec.Steps, r.Steps),
		CheckpointEvery: r.CheckpointEvery,
		OutputEvery:     r.OutputEvery,
		OutDir:          runDir,
		NoResume:        r.NoResume,
		PlanCache:       r.PlanCache,
		Telemetry:       reg,
		Health:          health,
		TraceLabel:      spec.ID,
		InjectNaNStep:   r.InjectNaNStep,
		OnRow:           spec.OnRow,
	})
	if outcome != nil {
		// Whatever the run accumulated — also before a cancellation or a
		// health trip — belongs to the record.
		rec.Outcome = outcome
		telCore := outcome.Telemetry.Without("bie.plan.")
		rec.Telemetry = telCore.CounterMap()
		rec.TelemetryGauges = telCore.GaugeMap()
		rec.TelemetrySeconds = outcome.Telemetry.SecondsMap()
		rec.Steps = outcome.Steps
		rec.ResumedFrom = outcome.ResumedFrom
		for _, f := range outcome.Outputs {
			rec.Outputs = append(rec.Outputs, relPath(r.OutDir, f))
		}
		sort.Strings(rec.Outputs)
	}
	var cerr *CancelledError
	var herr *HealthError
	switch {
	case err == nil:
		rec.Status = "ok"
		if health != nil {
			rec.Health = "ok"
			for _, v := range health.Verdicts() {
				rec.HealthVerdicts = append(rec.HealthVerdicts, v.String())
			}
		}
		rec.PlanFingerprint = outcome.PlanFingerprint
		rec.NumCells = len(outcome.Centroids)
		rec.VirtualTime = outcome.Ledger.VirtualTime
	case errors.As(err, &cerr):
		// The cancellation path confirmed the run stopped (the step worlds
		// exited before ExecuteContext returned) and wrote nothing for the
		// cancelled segment. Classify by cause: the run's own watchdog fired
		// ("timeout") vs the caller's context ("cancelled": drain, ^C,
		// client disconnect, server abort).
		if ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
			rec.Status = "timeout"
			rec.Error = fmt.Sprintf("run exceeded %gs (stopped at step %d)", timeout, cerr.Step)
		} else {
			rec.Status, rec.Error = "cancelled", err.Error()
		}
	case errors.As(err, &herr):
		// The monitor halted the run at a step boundary: a structured
		// failure with its own status, the verdicts, and the postmortem
		// bundle.
		rec.Status, rec.Error = "health-tripped", err.Error()
		rec.Health = "tripped"
		for _, v := range herr.Verdicts {
			rec.HealthVerdicts = append(rec.HealthVerdicts, v.String())
		}
		if herr.BundleDir != "" {
			rec.Bundle = relPath(r.OutDir, herr.BundleDir)
		}
	default:
		return fail(err)
	}
	return rec
}

// solveSurrogate runs one spec on the reduced-order tier and fills the
// record's surrogate summary; a non-nil error is the run's failure.
func (r *Runner) solveSurrogate(rec *RunRecord, spec RunSpec) error {
	cal, err := r.LoadCalibration()
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	start := time.Now()
	net, res, err := RunSurrogate(spec.Scenario, spec.Params, cal)
	rec.TierSeconds = time.Since(start).Seconds()
	if err != nil {
		return err
	}
	rec.Network, rec.Solution = net, res
	rec.Surrogate = &SurrogateRecord{
		Segments:      len(net.Segs),
		Iters:         res.Iters,
		Converged:     res.Converged,
		Residual:      res.Residual,
		FlowImbalance: res.FlowImbalance,
		RBCImbalance:  res.RBCImbalance,
		Calibrated:    cal != nil,
	}
	if !res.Converged {
		return fmt.Errorf("surrogate fixed point did not converge (residual %g after %d iters)", res.Residual, res.Iters)
	}
	if r.Objective != "" {
		rec.Surrogate.Objective, err = surrogate.EvalObjective(r.Objective, net, res)
	}
	return err
}

func relPath(base, p string) string {
	if r, err := filepath.Rel(base, p); err == nil {
		return r
	}
	return p
}
