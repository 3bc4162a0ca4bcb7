// Command campaign executes parameter-sweep simulation campaigns over the
// scenario registry: every run is checkpointed (interrupt with ^C and rerun
// to resume), observables stream to CSV, and cell/wall geometry goes to
// legacy VTK. A deterministic manifest.json summarizes the campaign.
//
//	campaign -scenarios all -dry-run             # list scenarios + sweep grid
//	campaign -scenarios torus -steps 8 \
//	         -sweep "max_cells=4,8" -checkpoint-every 2
//	campaign -scenarios torus,network-y -config campaign.json
//	campaign -calibrate out/cal                  # fit the surrogate calibration
//
// Interrupting a campaign loses nothing: rerunning the same command resumes
// every unfinished run from its last checkpoint and reproduces the
// uninterrupted trajectories bit-identically.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"rbcflow/cmd/internal/driver"
	"rbcflow/internal/scenario"
	"rbcflow/internal/surrogate"
)

// main delegates to run so deferred cleanup (the -debug-addr listener
// shutdown, the signal handler) executes on EVERY exit path — os.Exit in
// main would skip it.
func main() {
	os.Exit(run())
}

func run() int {
	f := driver.Bind(flag.CommandLine, 0, 0, "out/campaign")
	configPath := flag.String("config", "", "JSON campaign config (flags override its fields)")
	scenarios := flag.String("scenarios", "", `comma-separated scenario names, or "all"`)
	sweep := flag.String("sweep", "", `sweep axes (params keys, or ranks), e.g. "hct=0.1,0.2;level=0,1"`)
	workers := flag.Int("workers", 0, "concurrent runs")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint every k steps (0 = end only)")
	outEvery := flag.Int("output-every", 0, "VTK snapshot cadence in steps (0 = final only)")
	timeout := flag.Float64("timeout", 0, "per-run timeout in seconds")
	machine := flag.String("machine", "", "skx | knl")
	dryRun := flag.Bool("dry-run", false, "list scenarios and the expanded sweep, run nothing")
	noResume := flag.Bool("no-resume", false, "ignore existing checkpoints")
	injectNaN := flag.Int("inject-nan-step", 0, "TESTING: poison one cell coordinate with NaN at this step in every run")
	objective := flag.String("objective", "", "surrogate/mixed ranking objective: pressure-drop (default), max-velocity, or outlet-hct-cv")
	topK := flag.Int("top-k", 0, "mixed tier: how many top-ranked points to promote through BIE (default 1)")
	calibrate := flag.String("calibrate", "", "fit the surrogate calibration against BIE references at the config's base hct and gamma, write <dir>/calibration.gob + calibration.json, then exit")
	flag.Parse()

	cfg := &scenario.CampaignConfig{}
	if *configPath != "" {
		var err error
		if cfg, err = scenario.LoadCampaignConfig(*configPath); err != nil {
			return fail(err)
		}
	}
	if *calibrate != "" {
		return runCalibrate(*calibrate, cfg.Base)
	}
	if *scenarios != "" {
		if *scenarios == "all" {
			cfg.Scenarios = scenario.Names()
		} else {
			cfg.Scenarios = strings.Split(*scenarios, ",")
			for i := range cfg.Scenarios {
				cfg.Scenarios[i] = strings.TrimSpace(cfg.Scenarios[i])
			}
		}
	}
	if len(cfg.Scenarios) == 0 {
		fmt.Fprintln(os.Stderr, "no scenarios selected; use -scenarios or a -config file. Registered:")
		listScenarios()
		return 2
	}
	if *sweep != "" {
		axes, err := scenario.ParseSweep(*sweep)
		if err != nil {
			return fail(err)
		}
		if cfg.Sweep == nil {
			cfg.Sweep = map[string][]float64{}
		}
		for k, v := range axes {
			cfg.Sweep[k] = v
		}
	}
	// A flag given a non-zero value overrides the config's field. Negatives
	// pass through, so Normalize rejects them loudly instead of the flag
	// silently masking a bad value.
	override(&cfg.Steps, f.Steps)
	override(&cfg.Ranks, f.Ranks)
	override(&cfg.Workers, *workers)
	override(&cfg.CheckpointEvery, *ckptEvery)
	override(&cfg.OutputEvery, *outEvery)
	override(&cfg.TimeoutSec, *timeout)
	override(&cfg.Machine, *machine)
	override(&cfg.DisableResume, *noResume)
	override(&cfg.PlanCache, f.PlanCache)
	override(&cfg.DisableHealth, f.NoHealth)
	override(&cfg.InjectNaNStep, *injectNaN)
	override(&cfg.Tier, f.Tier)
	override(&cfg.Objective, *objective)
	override(&cfg.TopK, *topK)
	override(&cfg.CalibrationPath, f.Calibration)
	if err := cfg.Normalize(); err != nil {
		return fail(err)
	}

	specs, err := scenario.ExpandSweep(cfg)
	if err != nil {
		return fail(err)
	}

	if *dryRun {
		fmt.Println("registered scenarios:")
		listScenarios()
		fmt.Printf("\ncampaign: %d runs × %d steps, %d workers, %d ranks, machine %s\n",
			len(specs), cfg.Steps, cfg.Workers, cfg.Ranks, cfg.Machine)
		for _, s := range specs {
			fmt.Printf("  %s\n", s.ID)
		}
		return 0
	}

	// ^C (or SIGTERM) cancels the campaign context: in-flight runs stop at
	// their next step boundary and are recorded as "cancelled", queued runs
	// never start, and the manifest is still written — so a drained campaign
	// resumes cleanly on rerun. A second signal kills the process outright.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// The campaign-wide recorder rides on cfg.Trace (every run's own registry
	// attaches it); the registry Observe returns only backs the debug
	// listener — per-run metrics land in the manifest.
	_, rec, stop, err := f.Observe()
	if err != nil {
		return fail(err)
	}
	defer stop()
	cfg.Trace = rec

	m, err := scenario.RunCampaignContext(ctx, cfg, f.Out, os.Stdout)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("campaign complete: %d/%d runs ok; manifest at %s/manifest.json\n",
		m.OKCount(), len(m.Runs), f.Out)
	tripped := 0
	for _, r := range m.Runs {
		if r.Status == "health-tripped" {
			tripped++
		}
	}
	if tripped > 0 {
		fmt.Printf("  %d run(s) health-tripped; verdicts and postmortem bundles are in the manifest\n", tripped)
	}
	for _, ps := range m.PlanStats {
		fmt.Printf("  wall plan %.12s: %d run(s), %s\n", ps.Fingerprint, ps.Runs, ps.Source)
	}
	if p := m.Promotion; p != nil {
		fmt.Printf("  surrogate sweep: %d point(s) ranked by %s, %.3gms/point\n",
			len(p.Ranking), p.Objective, 1e3*p.SurrogateSecondsPerPoint)
		if len(p.Promoted) > 0 {
			fmt.Printf("  promoted to BIE: %s (%.1f× surrogate cost per point)\n",
				strings.Join(p.Promoted, ", "), p.SpeedupPerPoint)
		}
	}
	if f.TelemetryOut != "" {
		if err := writeCampaignTelemetry(f.TelemetryOut, m); err != nil {
			return fail(err)
		}
		fmt.Printf("telemetry aggregates written to %s\n", f.TelemetryOut)
	}
	if m.OKCount() < len(m.Runs) {
		return 1
	}
	return 0
}

// writeCampaignTelemetry dumps the manifest's telemetry view: the campaign
// totals plus each run's deterministic counter/gauge core and wall-clock
// span seconds.
func writeCampaignTelemetry(path string, m *scenario.Manifest) error {
	type runTel struct {
		Counters map[string]int64   `json:"counters,omitempty"`
		Gauges   map[string]float64 `json:"gauges,omitempty"`
		Seconds  map[string]float64 `json:"seconds,omitempty"`
	}
	runs := map[string]runTel{}
	for _, r := range m.Runs {
		if len(r.Telemetry) == 0 && len(r.TelemetryGauges) == 0 {
			continue
		}
		runs[r.ID] = runTel{Counters: r.Telemetry, Gauges: r.TelemetryGauges, Seconds: r.TelemetrySeconds}
	}
	blob, err := json.MarshalIndent(map[string]any{
		"telemetry_totals": m.TelemetryTotals,
		"runs":             runs,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func listScenarios() {
	for _, s := range scenario.All() {
		kind := "steppable"
		if !s.Steppable {
			kind = "geometry-only"
		}
		fmt.Printf("  %-18s %-13s %s\n", s.Name, kind, s.Description)
	}
}

// runCalibrate fits the surrogate correction factors against full
// boundary-integral references on the built-in calibration suite, at the
// inlet haematocrit and skimming exponent of p (zero = the network
// scenarios' defaults), then writes the content-addressed artifact and its
// JSON report into dir.
func runCalibrate(dir string, p scenario.Params) int {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	p.Defaults()
	fmt.Println("calibrating surrogate against BIE references (Y bifurcation + depth-2 tree)...")
	start := time.Now()
	cal, rep, err := surrogate.CalibrateBuiltin(surrogate.BIEReferenceConfig{}, surrogate.Params{
		InletHct: p.Hct, Gamma: p.Gamma,
	})
	if err != nil {
		return fail(err)
	}
	gobPath := filepath.Join(dir, "calibration.gob")
	jsonPath := filepath.Join(dir, "calibration.json")
	if err := surrogate.SaveCalibration(gobPath, cal); err != nil {
		return fail(err)
	}
	if err := surrogate.WriteReport(jsonPath, rep); err != nil {
		return fail(err)
	}
	fmt.Printf("calibration %.12s fitted in %s\n", cal.Fingerprint, time.Since(start).Round(time.Millisecond))
	for _, r := range cal.Regimes {
		upper := "inf"
		if r.RMax < math.MaxFloat64 {
			upper = fmt.Sprintf("%.3g", r.RMax)
		}
		fmt.Printf("  radius [%.3g, %s): factor %.6f over %d sample(s), RMS %.3g -> %.3g\n",
			r.RMin, upper, r.Factor, r.Samples, r.RMSBefore, r.RMSAfter)
	}
	fmt.Printf("artifact: %s\nreport:   %s\n", gobPath, jsonPath)
	return 0
}

// override sets *field to v unless v is its type's zero value, the value
// of a flag left unset.
func override[T comparable](field *T, v T) {
	var zero T
	if v != zero {
		*field = v
	}
}

// fail prints the error and yields run's exit code, letting deferred
// cleanup execute (unlike os.Exit).
func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}
