package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"rbcflow/internal/telemetry"
)

// HealthConfig tunes the numerical-health monitor. The zero value is usable;
// defaults are chosen so the detectors never trip a healthy run of the
// repo's own scenarios (solves routinely sit unconverged near a loose cap,
// and the known depth-2 fallback-tree stall plateaus at ~1.5e-2 — both well
// below every fatal threshold here). NaN/Inf, on the other hand, is always
// fatal: no legitimate state in this pipeline contains one.
type HealthConfig struct {
	// MaxContacts caps the collision pair count per resolve; beyond it the
	// contact search is assumed to have blown up (default 1<<20).
	MaxContacts int
	// KeepSolves bounds the ring of recent GMRES records kept for the
	// flight bundle (default 32).
	KeepSolves int
	// Log receives one structured record per verdict (nil = slog.Default()).
	Log *slog.Logger
}

// The GMRES detectors' thresholds. A solve is stalled when its last
// residual exceeds stallImprove × the residual stallWindow iterations
// earlier (less than 10 % improvement); the stall is fatal only when the
// solve also ended unconverged above stallResidual — a plateau at an
// accurate level is the fallback-tree regime, not a failure. A solve
// diverged when its final residual exceeds divergeFactor × its best residual
// and is above 1.
const (
	stallWindow   = 10
	stallImprove  = 0.9
	stallResidual = 0.5
	divergeFactor = 100
)

func (c *HealthConfig) defaults() {
	if c.MaxContacts == 0 {
		c.MaxContacts = 1 << 20
	}
	if c.KeepSolves == 0 {
		c.KeepSolves = 32
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
}

// Verdict is one health finding. Fatal verdicts trip the monitor (halting
// the run at the next step boundary); non-fatal ones are warnings recorded
// in the report and the campaign manifest.
type Verdict struct {
	Check  string `json:"check"`           // e.g. "core.cellstate", "bie.gmres.stall"
	Step   int    `json:"step"`            // 1-based simulation step (0 = outside stepping)
	Detail string `json:"detail"`          // human-readable specifics
	Fatal  bool   `json:"fatal,omitempty"` // trips the flight recorder
}

func (v Verdict) String() string {
	sev := "warn"
	if v.Fatal {
		sev = "fatal"
	}
	return fmt.Sprintf("[%s] step %d %s: %s", sev, v.Step, v.Check, v.Detail)
}

// Float is a float64 whose JSON form survives non-finite values:
// encoding/json rejects NaN/±Inf as numbers, and a flight bundle exists
// precisely BECAUSE something went non-finite — so those values encode as
// the strings "NaN", "+Inf", "-Inf" instead of failing the whole bundle.
type Float float64

func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

func (f *Float) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		*f = Float(v)
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// SolveRecord is one GMRES solve as seen by ObserveSolve, kept (bounded by
// KeepSolves) so the flight bundle carries the residual histories leading up
// to a trip.
type SolveRecord struct {
	Step       int     `json:"step"`
	Iterations int     `json:"iterations"`
	Residual   Float   `json:"residual"`
	Converged  bool    `json:"converged"`
	Breakdown  string  `json:"breakdown,omitempty"`
	History    []Float `json:"history,omitempty"`
}

// Health is the numerical-health monitor: layers call its Check/Observe
// methods at phase boundaries; the first fatal verdict trips it, after which
// Tripped() reports true and the run's executor writes a flight-recorder
// bundle and halts at the step boundary. All methods are safe on a nil
// receiver (health off) and safe for concurrent use.
//
// SPMD note: halting must be collective — core.Step agrees on the tripped
// flag across ranks (AllreduceMax) before any rank leaves the step loop, so
// a trip on one rank never strands the others in a collective.
type Health struct {
	cfg     HealthConfig
	rec     *Recorder // may be nil; trips also land on the timeline
	tel     *telemetry.Registry
	step    atomic.Int64
	tripped atomic.Bool

	mu       sync.Mutex
	verdicts []Verdict
	seen     map[string]bool // "check@step" dedup → deterministic counters
	solves   []SolveRecord   // ring of the last KeepSolves
	next     int
	wrapped  bool
}

// NewHealth builds a monitor. rec (the timeline recorder) and reg (the
// telemetry registry, for health.verdicts / health.trips counters) may both
// be nil.
func NewHealth(cfg HealthConfig, rec *Recorder, reg *telemetry.Registry) *Health {
	cfg.defaults()
	return &Health{cfg: cfg, rec: rec, tel: reg, seen: map[string]bool{}}
}

// BeginStep marks the start of 1-based step n; subsequent verdicts and solve
// records are attributed to it.
func (h *Health) BeginStep(n int) {
	if h == nil {
		return
	}
	h.step.Store(int64(n))
}

// Tripped reports whether any fatal verdict has been recorded.
func (h *Health) Tripped() bool {
	return h != nil && h.tripped.Load()
}

// Verdicts returns a copy of all recorded verdicts, in order.
func (h *Health) Verdicts() []Verdict {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Verdict, len(h.verdicts))
	copy(out, h.verdicts)
	return out
}

// Solves returns the retained GMRES records, oldest first.
func (h *Health) Solves() []SolveRecord {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]SolveRecord, 0, len(h.solves))
	if h.wrapped {
		out = append(out, h.solves[h.next:]...)
	}
	out = append(out, h.solves[:h.next]...)
	return out
}

// report records a verdict: dedups by (check, step) so every rank observing
// the same condition in the same step yields ONE verdict (keeping the
// health.* counters and the manifest deterministic across rank counts), logs
// it, counts it, marks the timeline, and trips the monitor when fatal.
func (h *Health) report(v Verdict) {
	if h == nil {
		return
	}
	v.Step = int(h.step.Load())
	key := fmt.Sprintf("%s@%d", v.Check, v.Step)
	h.mu.Lock()
	if h.seen[key] {
		h.mu.Unlock()
		return
	}
	h.seen[key] = true
	h.verdicts = append(h.verdicts, v)
	h.mu.Unlock()

	lvl := slog.LevelWarn
	if v.Fatal {
		lvl = slog.LevelError
	}
	h.cfg.Log.Log(context.Background(), lvl, "health verdict",
		"check", v.Check, "step", v.Step, "fatal", v.Fatal, "detail", v.Detail)
	h.tel.Counter("health.verdicts").Inc()
	if v.Fatal {
		h.tel.Counter("health.trips").Inc()
		h.tripped.Store(true)
		h.rec.Instant("health.trip:" + v.Check)
	} else {
		h.rec.Instant("health.warn:" + v.Check)
	}
}

// CheckFinite scans vs for NaN/Inf and reports a fatal verdict naming the
// first bad index when found. Returns true when the data is clean. The scan
// is branch-light (x-x == 0 only for finite x) and safe to run at phase
// boundaries on full state vectors.
func (h *Health) CheckFinite(check string, vs []float64) bool {
	if h == nil {
		return true
	}
	for i, v := range vs {
		if d := v - v; d != 0 || math.IsNaN(d) {
			h.report(Verdict{
				Check:  check,
				Detail: fmt.Sprintf("non-finite value %v at index %d of %d", v, i, len(vs)),
				Fatal:  true,
			})
			return false
		}
	}
	return true
}

// CheckFiniteScalar reports a fatal verdict when v is NaN/Inf.
func (h *Health) CheckFiniteScalar(check string, v float64) bool {
	if h == nil {
		return true
	}
	if d := v - v; d != 0 || math.IsNaN(d) {
		h.report(Verdict{Check: check, Detail: fmt.Sprintf("non-finite value %v", v), Fatal: true})
		return false
	}
	return true
}

// VolumeDriftFatal bounds the relative change of the total cell volume. Cell
// membranes enclose an incompressible fluid, so the healthy model drifts
// only by discretisation error: at most 4.2e-2 in the repo's runs (capsule,
// 22 steps; 2.7e-2 for order-8 shear over 128 steps), under the benchmark's
// own 0.08 row bound. The blow-ups this catches jump past it by orders of
// magnitude within a step (capsule: -4.2e-2 at step 22, -1.2e10 at step 24),
// so the bound sits well clear of both: half the volume gone or added has no
// physical reading.
const VolumeDriftFatal = 0.5

// CheckVolumeDrift reports a fatal core.volume_drift verdict, and returns
// false, when rel — the total cell volume's change relative to its initial
// value — is non-finite or beyond VolumeDriftFatal in magnitude. SPMD
// callers pass the allreduced volume's drift, so every rank reaches the same
// answer at the same step without another collective.
func (h *Health) CheckVolumeDrift(rel float64) bool {
	if h == nil || math.Abs(rel) <= VolumeDriftFatal {
		return true
	}
	h.report(Verdict{
		Check:  "core.volume_drift",
		Detail: fmt.Sprintf("total cell volume drifted by %.3g of its initial value (fatal beyond %g)", rel, VolumeDriftFatal),
		Fatal:  true,
	})
	return false
}

// ObserveSolve records a GMRES outcome and runs the stall/divergence
// detectors over its residual history. breakdown non-empty (the solver saw
// non-finite numbers) is always fatal; stall and divergence are fatal only
// past the configured thresholds, and an unconverged-but-accurate plateau is
// recorded as a warning.
func (h *Health) ObserveSolve(iterations int, residual float64, converged bool, breakdown string, history []float64) {
	if h == nil {
		return
	}
	step := int(h.step.Load())
	rec := SolveRecord{
		Step: step, Iterations: iterations, Residual: Float(residual),
		Converged: converged, Breakdown: breakdown,
	}
	rec.History = make([]Float, len(history))
	for i, r := range history {
		rec.History[i] = Float(r)
	}
	h.mu.Lock()
	if len(h.solves) < h.cfg.KeepSolves {
		h.solves = append(h.solves, rec)
		h.next = len(h.solves) % h.cfg.KeepSolves
	} else {
		h.solves[h.next] = rec
		h.next = (h.next + 1) % h.cfg.KeepSolves
		h.wrapped = true
	}
	h.mu.Unlock()

	if breakdown != "" {
		h.report(Verdict{Check: "bie.gmres.breakdown", Detail: breakdown, Fatal: true})
		return
	}
	if !h.CheckFiniteScalar("bie.gmres.residual", residual) {
		return
	}
	if converged || len(history) == 0 {
		return
	}
	final := history[len(history)-1]
	best := math.Inf(1)
	for _, r := range history {
		if r < best {
			best = r
		}
	}
	if final > divergeFactor*best && final > 1.0 {
		h.report(Verdict{
			Check:  "bie.gmres.divergence",
			Detail: fmt.Sprintf("residual grew to %.3g from best %.3g over %d iterations", final, best, len(history)),
			Fatal:  true,
		})
		return
	}
	if len(history) > stallWindow {
		ref := history[len(history)-1-stallWindow]
		if final > stallImprove*ref {
			v := Verdict{
				Check: "bie.gmres.stall",
				Detail: fmt.Sprintf("unconverged at %.3g with <%.0f%% improvement over last %d iterations",
					final, (1-stallImprove)*100, stallWindow),
				Fatal: final > stallResidual,
			}
			h.report(v)
		}
	}
}

// ObserveContacts records a collision-resolve outcome: a pair count beyond
// MaxContacts is fatal (contact search blow-up); unresolved contacts at the
// NCP iteration cap are a warning — physically meaningful (the overlap
// regime) but worth surfacing per step.
func (h *Health) ObserveContacts(pairs, ncpIters, unresolved int) {
	if h == nil {
		return
	}
	if pairs > h.cfg.MaxContacts {
		h.report(Verdict{
			Check:  "collision.overflow",
			Detail: fmt.Sprintf("%d contact pairs exceeds cap %d", pairs, h.cfg.MaxContacts),
			Fatal:  true,
		})
		return
	}
	if unresolved > 0 {
		h.report(Verdict{
			Check:  "collision.unresolved",
			Detail: fmt.Sprintf("%d contacts still violating after %d NCP iterations (%d pairs)", unresolved, ncpIters, pairs),
		})
	}
}

// Report is the JSON shape of the health section of a flight bundle.
type Report struct {
	Tripped  bool          `json:"tripped"`
	Verdicts []Verdict     `json:"verdicts"`
	Solves   []SolveRecord `json:"solves,omitempty"`
}

// Report assembles the monitor's current state for serialization.
func (h *Health) Report() Report {
	if h == nil {
		return Report{}
	}
	return Report{Tripped: h.Tripped(), Verdicts: h.Verdicts(), Solves: h.Solves()}
}
