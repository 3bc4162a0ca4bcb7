package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rbcflow/internal/bie"
	"rbcflow/internal/par"
	"rbcflow/internal/surrogate"
	"rbcflow/internal/telemetry"
	"rbcflow/internal/trace"
)

// CampaignConfig describes a parameter-sweep campaign: a family of
// scenarios crossed with a grid of sweep axes, executed across a bounded
// worker pool with per-run timeouts and checkpoint/restart.
type CampaignConfig struct {
	// Scenarios to run; expanded in the listed order.
	Scenarios []string `json:"scenarios"`
	// Base parameters applied to every run before sweep axes.
	Base Params `json:"base"`
	// Sweep maps axis names (Params JSON tags, or "ranks") to value lists;
	// the grid is the cartesian product, axes expanded in sorted-key order.
	Sweep map[string][]float64 `json:"sweep,omitempty"`

	Steps           int     `json:"steps"`
	Ranks           int     `json:"ranks,omitempty"`
	Machine         string  `json:"machine,omitempty"` // "skx" (default) | "knl"
	Workers         int     `json:"workers,omitempty"`
	CheckpointEvery int     `json:"checkpoint_every,omitempty"`
	OutputEvery     int     `json:"output_every,omitempty"`
	TimeoutSec      float64 `json:"timeout_sec,omitempty"`
	// DisableResume restarts every run from step 0 even when a checkpoint
	// exists.
	DisableResume bool `json:"disable_resume,omitempty"`
	// PlanCache is the content-addressed wall-plan disk cache directory;
	// sweep points and repeated campaigns with equal geometry reuse plans
	// instead of rebuilding them.
	PlanCache string `json:"plan_cache,omitempty"`
	// DisableHealth turns the numerical-health monitor off. It is ON by
	// default: every run gets its own monitor, a fatal trip records status
	// "health-tripped" with the verdicts and postmortem-bundle path in the
	// manifest, and the campaign keeps draining the remaining runs.
	DisableHealth bool `json:"disable_health,omitempty"`
	// InjectNaNStep, when > 0, poisons one cell coordinate with NaN at that
	// step in EVERY run — the campaign-level fault-injection smoke (see
	// RunOptions.InjectNaNStep).
	InjectNaNStep int `json:"inject_nan_step,omitempty"`

	// Tier selects the simulation tier: "" or "bie" (full boundary-integral
	// pipeline), "surrogate" (reduced-order network solver only), or "mixed"
	// (surrogate sweep, rank by Objective, promote the top K through BIE).
	Tier string `json:"tier,omitempty"`
	// Objective ranks surrogate runs in surrogate/mixed campaigns (default
	// "pressure-drop"; see surrogate.ObjectiveNames).
	Objective string `json:"objective,omitempty"`
	// TopK is how many top-ranked points a mixed campaign promotes to the
	// BIE tier (default 1).
	TopK int `json:"top_k,omitempty"`
	// CalibrationPath points at a surrogate calibration artifact applied to
	// every surrogate solve; empty = uncorrected velocities.
	CalibrationPath string `json:"calibration,omitempty"`
	// Calibration overrides CalibrationPath with an in-memory artifact.
	// Not part of the JSON config.
	Calibration *surrogate.Calibration `json:"-"`

	// Trace, when non-nil, is the shared execution-timeline recorder: it is
	// attached to every run's registry, so the campaign's runs land on
	// labelled "<runID>/rankN" timelines of ONE exportable trace. Not part
	// of the JSON config (drivers wire it from -trace-out/-debug-addr).
	Trace *trace.Recorder `json:"-"`
}

// DefaultTimeoutSec is the per-run watchdog applied when a campaign config
// leaves timeout_sec unset.
const DefaultTimeoutSec = 600

// Defaults fills zero fields.
func (c *CampaignConfig) Defaults() {
	if c.Steps == 0 {
		c.Steps = 4
	}
	if c.Ranks == 0 {
		c.Ranks = 1
	}
	if c.Machine == "" {
		c.Machine = "skx"
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.TimeoutSec == 0 {
		c.TimeoutSec = DefaultTimeoutSec
	}
}

// ConfigError is a typed rejection of one campaign-config field or run
// parameter; callers can errors.As for it to distinguish bad configs from
// runtime failures.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("invalid %s: %s", e.Field, e.Reason)
}

// Normalize validates the explicit fields, then fills defaults. Zero means
// "take the default" throughout the config; explicit negatives are rejected
// with a *ConfigError instead of being silently misinterpreted — a negative
// timeout_sec used to produce a time.After duration that fired immediately,
// recording every run as "timeout" without ever running it.
func (c *CampaignConfig) Normalize() error {
	if c.TimeoutSec < 0 {
		return &ConfigError{Field: "timeout_sec",
			Reason: fmt.Sprintf("must be positive, got %g (0 or omitted = default %ds)", c.TimeoutSec, DefaultTimeoutSec)}
	}
	if c.Steps < 0 {
		return &ConfigError{Field: "steps", Reason: fmt.Sprintf("must be positive, got %d", c.Steps)}
	}
	if c.Ranks < 0 {
		return &ConfigError{Field: "ranks", Reason: fmt.Sprintf("must be positive, got %d", c.Ranks)}
	}
	if c.Ranks > MaxRanks {
		return &ConfigError{Field: "ranks", Reason: fmt.Sprintf("must be at most %d, got %d", MaxRanks, c.Ranks)}
	}
	if c.Workers < 0 {
		return &ConfigError{Field: "workers", Reason: fmt.Sprintf("must be positive, got %d", c.Workers)}
	}
	if !ValidTier(c.Tier) {
		return &ConfigError{Field: "tier",
			Reason: fmt.Sprintf("unknown tier %q (want bie, surrogate, or mixed)", c.Tier)}
	}
	if c.TopK < 0 {
		return &ConfigError{Field: "top_k", Reason: fmt.Sprintf("must be non-negative, got %d", c.TopK)}
	}
	if c.Tier == TierSurrogate || c.Tier == TierMixed {
		if c.Objective == "" {
			c.Objective = "pressure-drop"
		}
		if !surrogate.ValidObjective(c.Objective) {
			return &ConfigError{Field: "objective",
				Reason: fmt.Sprintf("unknown objective %q (known: %v)", c.Objective, surrogate.ObjectiveNames())}
		}
		if c.Tier == TierMixed && c.TopK == 0 {
			c.TopK = 1
		}
	} else if c.Objective != "" || c.TopK != 0 || c.CalibrationPath != "" {
		return &ConfigError{Field: "tier",
			Reason: "objective/top_k/calibration are surrogate- and mixed-tier options"}
	}
	c.Defaults()
	return nil
}

// MachineModel resolves the machine name.
func (c *CampaignConfig) MachineModel() (par.Machine, error) {
	switch c.Machine {
	case "", "skx":
		return par.SKX(), nil
	case "knl":
		return par.KNL(), nil
	}
	return par.Machine{}, fmt.Errorf("campaign: unknown machine %q (want skx or knl)", c.Machine)
}

// LoadCampaignConfig reads a JSON campaign file. A key that no field
// carries — mistyped, or removed in a later version — is an error naming the
// key: ignoring it would silently run a different campaign.
func LoadCampaignConfig(path string) (*CampaignConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := &CampaignConfig{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		return nil, fmt.Errorf("campaign: parse %s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("campaign: parse %s: trailing data after the config object", path)
	}
	return cfg, nil
}

// ExpandSweep produces the deterministic run list: scenarios in listed
// order, sweep axes in sorted-key order, values in listed order. Every axis
// is a Params key except "ranks", which sets RunSpec.Ranks (the scaling
// studies' axis; CampaignConfig.Ranks stays the default). Each point is
// validated by RunSpec.Resolve, so a bad value fails the campaign before
// any run starts.
func ExpandSweep(cfg *CampaignConfig) ([]RunSpec, error) {
	keys := make([]string, 0, len(cfg.Sweep))
	for k := range cfg.Sweep {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if len(cfg.Sweep[k]) == 0 {
			return nil, fmt.Errorf("campaign: sweep axis %q has no values", k)
		}
		if k != "ranks" {
			continue
		}
		for _, v := range cfg.Sweep[k] {
			if !(v >= 1 && v <= MaxRanks && v == math.Trunc(v)) {
				return nil, &ConfigError{Field: "ranks", Reason: fmt.Sprintf("must be an integer from 1 to %d, got %g", MaxRanks, v)}
			}
		}
	}
	var specs []RunSpec
	for _, name := range cfg.Scenarios {
		// Cartesian product over axes, first key slowest.
		idx := make([]int, len(keys))
		for {
			spec := RunSpec{ID: name, Scenario: name, Params: cfg.Base}
			var coord []string
			for i, k := range keys {
				v := cfg.Sweep[k][idx[i]]
				if k == "ranks" {
					spec.Ranks = int(v)
				} else if err := spec.Params.Set(k, v); err != nil {
					return nil, err
				}
				coord = append(coord, fmt.Sprintf("%s%g", strings.ReplaceAll(k, "_", ""), v))
			}
			if len(coord) > 0 {
				spec.ID += "_" + strings.Join(coord, "_")
			}
			if _, err := spec.Resolve(); err != nil {
				return nil, err
			}
			specs = append(specs, spec)
			// Advance the odometer.
			i := len(keys) - 1
			for ; i >= 0; i-- {
				idx[i]++
				if idx[i] < len(cfg.Sweep[keys[i]]) {
					break
				}
				idx[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	return specs, nil
}

// PlanStat is one wall-plan entry of the campaign manifest: how many runs
// consumed the plan and how its single materialization was satisfied
// ("built" = computed this campaign, "disk" = loaded from the plan cache).
type PlanStat struct {
	Fingerprint string `json:"fingerprint"`
	Runs        int    `json:"runs"`
	Source      string `json:"source"`
}

// Manifest is the deterministic campaign summary written to
// <outdir>/manifest.json: runs appear in sweep-expansion order with their
// status and outputs, and PlanStats lists the wall plans consumed, sorted
// by fingerprint. It carries no timestamps and no scheduling-dependent
// fields, so — apart from the explicitly wall-clock telemetry_seconds
// reporting — a campaign is reproduced byte-for-byte by re-running it from
// the same starting state (fresh output dir and plan cache).
type Manifest struct {
	Config    CampaignConfig `json:"config"`
	Runs      []RunRecord    `json:"runs"`
	PlanStats []PlanStat     `json:"plan_stats,omitempty"`
	// TelemetryTotals sums every run's full counter map — INCLUDING the
	// invocation-scoped "bie.plan." counters, which are deterministic at
	// campaign scope for a fixed starting cache state (each geometry misses
	// once cold, hits once warm) even though a resumed individual run
	// re-counts them.
	TelemetryTotals map[string]int64 `json:"telemetry_totals,omitempty"`
	// Promotion records the mixed-tier ranking and promotion decision (nil
	// in plain campaigns).
	Promotion *Promotion `json:"promotion,omitempty"`
}

// OKCount returns how many runs finished ("ok" or "geometry-only").
func (m *Manifest) OKCount() int {
	n := 0
	for _, r := range m.Runs {
		if r.Status == "ok" || r.Status == "geometry-only" {
			n++
		}
	}
	return n
}

// RunCampaignContext expands the sweep and executes every run across a
// bounded worker pool, reusing geometry across sweep points, checkpointing
// each run, and writing the deterministic manifest to
// <outDir>/manifest.json. A log line per run goes to logw (io.Discard to
// silence). Run failures are recorded in the manifest, not returned: the
// error is non-nil only for campaign-level problems (bad config, unwritable
// outDir).
//
// Cancelling ctx drains the campaign — in-flight runs are cancelled through
// the same context path as per-run timeouts (they stop at a step boundary,
// skip the partial checkpoint, and record "cancelled"), queued runs never
// start, and the manifest is still written so the resume path can pick
// everything up.
//
// A surrogate or mixed campaign sends the whole sweep grid through the
// reduced-order tier first, ranks the converged points by the campaign
// objective, and (mixed only) promotes the top K through the BIE tier under
// "<id>__bie" run IDs, so both tiers of a promoted point coexist in the
// output directory. Every run of either tier is one Runner.Run.
func RunCampaignContext(ctx context.Context, cfg *CampaignConfig, outDir string, logw io.Writer) (*Manifest, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	machine, err := cfg.MachineModel()
	if err != nil {
		return nil, err
	}
	specs, err := ExpandSweep(cfg)
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("campaign: no runs (empty scenario list?)")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if cfg.PlanCache != "" {
		if err := os.MkdirAll(cfg.PlanCache, 0o755); err != nil {
			return nil, err
		}
	}
	rn := &Runner{
		Ranks:           cfg.Ranks,
		Steps:           cfg.Steps,
		TimeoutSec:      cfg.TimeoutSec,
		Machine:         machine,
		OutDir:          outDir,
		CheckpointEvery: cfg.CheckpointEvery,
		OutputEvery:     cfg.OutputEvery,
		NoResume:        cfg.DisableResume,
		PlanCache:       cfg.PlanCache,
		InjectNaNStep:   cfg.InjectNaNStep,
		DisableHealth:   cfg.DisableHealth,
		CalibrationPath: cfg.CalibrationPath,
		Calibration:     cfg.Calibration,
		Objective:       cfg.Objective,
	}
	if _, err := rn.LoadCalibration(); err != nil {
		return nil, fmt.Errorf("campaign: load calibration: %w", err)
	}

	m := &Manifest{Config: *cfg}
	if cfg.Tier != TierSurrogate && cfg.Tier != TierMixed {
		m.Runs = runPool(ctx, rn, cfg.Trace, cfg.Workers, specs, logw)
	} else {
		// Sub-millisecond per point on the builtin networks, so the surrogate
		// sweep runs on one worker: an ordered log and undisturbed per-point
		// timings, for free.
		for i := range specs {
			specs[i].Tier = TierSurrogate
		}
		m.Runs = runPool(ctx, rn, cfg.Trace, 1, specs, logw)
		var promoted []RunSpec
		m.Promotion, promoted = rankSurrogate(cfg, m.Runs)
		if n := len(promoted); n > 0 {
			start := time.Now()
			m.Runs = append(m.Runs, runPool(ctx, rn, cfg.Trace, cfg.Workers, promoted, logw)...)
			prom := m.Promotion
			prom.BIESecondsPerPoint = time.Since(start).Seconds() / float64(n)
			if prom.SurrogateSecondsPerPoint > 0 {
				prom.SpeedupPerPoint = prom.BIESecondsPerPoint / prom.SurrogateSecondsPerPoint
			}
		}
	}
	m.PlanStats = aggregatePlanStats(m.Runs)
	m.TelemetryTotals = aggregateTelemetry(m.Runs)
	if err := WriteManifest(filepath.Join(outDir, "manifest.json"), m); err != nil {
		return nil, err
	}
	return m, nil
}

// runPool executes specs across a bounded worker pool and returns their
// records in spec order. Cancelling ctx drains it: in-flight runs stop at a
// step boundary and the runner refuses every run that has not started yet,
// so each spec still accounts for itself in the manifest and a rerun resumes
// exactly the unfinished set.
func runPool(ctx context.Context, rn *Runner, tr *trace.Recorder, workers int, specs []RunSpec, logw io.Writer) []RunRecord {
	records := make([]RunRecord, len(specs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				spec := specs[i]
				// Every run records into its own registry, so per-run
				// aggregates are independent of worker scheduling and rank
				// interleaving across runs. The (optional) trace recorder IS
				// shared: runs land on labelled per-rank timelines of one
				// campaign-wide trace.
				spec.Telemetry = telemetry.NewRegistry()
				if tr != nil {
					// The nil check matters: a typed-nil *Recorder stored in
					// the SpanTracer interface would re-enable the traced
					// span path.
					spec.Telemetry.SetTracer(tr)
				}
				r := rn.Run(ctx, spec)
				// The manifest keeps the surrogate summary, not the solved graph.
				r.Network, r.Solution = nil, nil
				records[i] = r
				tier := ""
				if r.Tier != "" {
					tier = " [" + r.Tier + "]"
				}
				switch {
				case r.Status == "ok" && r.Surrogate != nil:
					fmt.Fprintf(logw, "run %-40s ok%s: %d iters, objective %.6g\n",
						r.ID, tier, r.Surrogate.Iters, r.Surrogate.Objective)
				case r.Status == "ok":
					l := r.Outcome.Ledger.TimeByLabel
					fmt.Fprintf(logw, "run %-40s ok%s: %d steps (resumed from %d), %d cells, volume fraction %.1f%%, "+
						"virtual time %.3fs (COL %.3f, BIE-solve %.3f, BIE-FMM %.3f, Other-FMM %.3f, Other %.3f)\n",
						r.ID, tier, r.Steps, r.ResumedFrom, r.NumCells, 100*r.Outcome.VolFraction, r.VirtualTime,
						l["COL"], l["BIE-solve"], l["BIE-FMM"], l["Other-FMM"], l["Other"])
				case r.Status == "geometry-only":
					fmt.Fprintf(logw, "run %-40s geometry-only (scenario is not steppable)\n", r.ID)
				default:
					fmt.Fprintf(logw, "run %-40s %s%s: %s\n", r.ID, r.Status, tier, r.Error)
				}
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return records
}

// rankSurrogate ranks the converged surrogate records — objective
// descending, ID ascending on ties (the sweep expansion order is
// deterministic, so this is too) — and, in a mixed campaign, marks the top K
// promoted and returns their BIE-tier specs.
func rankSurrogate(cfg *CampaignConfig, records []RunRecord) (*Promotion, []RunSpec) {
	prom := &Promotion{Objective: cfg.Objective, TopK: cfg.TopK}
	var ranked []int
	for i, r := range records {
		prom.SurrogateSecondsPerPoint += r.TierSeconds / float64(len(records))
		if r.Status == "ok" {
			ranked = append(ranked, i)
		}
	}
	sort.Slice(ranked, func(a, b int) bool {
		ra, rb := records[ranked[a]], records[ranked[b]]
		if ra.Surrogate.Objective != rb.Surrogate.Objective {
			return ra.Surrogate.Objective > rb.Surrogate.Objective
		}
		return ra.ID < rb.ID
	})
	for _, i := range ranked {
		prom.Ranking = append(prom.Ranking, RankedRun{ID: records[i].ID, Objective: records[i].Surrogate.Objective})
	}
	if cfg.Tier != TierMixed {
		return prom, nil
	}
	var promoted []RunSpec
	for _, i := range ranked[:min(cfg.TopK, len(ranked))] {
		r := &records[i]
		r.Promoted = true
		prom.Promoted = append(prom.Promoted, r.ID)
		promoted = append(promoted, RunSpec{ID: r.ID + "__bie", Scenario: r.Scenario, Params: r.Params, Tier: TierBIE})
	}
	return prom, promoted
}

// aggregateTelemetry sums the per-run full counter maps into the campaign
// totals (nil when no run recorded anything).
func aggregateTelemetry(records []RunRecord) map[string]int64 {
	var out map[string]int64
	for _, r := range records {
		if r.Outcome == nil {
			continue
		}
		for k, v := range r.Outcome.Telemetry.CounterMap() {
			if out == nil {
				out = map[string]int64{}
			}
			out[k] += v
		}
	}
	return out
}

// aggregatePlanStats folds the per-run plan provenance into deterministic
// per-fingerprint counts. Exactly one run per materialized plan reports a
// non-"memory" source (the Geom's sync.Once guarantees a single
// materialization), so the aggregate is stable even though which worker won
// the race is not.
func aggregatePlanStats(records []RunRecord) []PlanStat {
	byFP := map[string]*PlanStat{}
	for _, r := range records {
		if r.PlanFingerprint == "" {
			continue
		}
		st, ok := byFP[r.PlanFingerprint]
		if !ok {
			st = &PlanStat{Fingerprint: r.PlanFingerprint, Source: string(bie.PlanShared)}
			byFP[r.PlanFingerprint] = st
		}
		st.Runs++
		if src := r.Outcome.PlanSource; src != "" && src != string(bie.PlanShared) {
			st.Source = src
		}
	}
	out := make([]PlanStat, 0, len(byFP))
	for _, st := range byFP {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}

// WriteManifest writes the manifest as stable, indented JSON.
func WriteManifest(path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
