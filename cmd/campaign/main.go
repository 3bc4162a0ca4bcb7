// Command campaign executes parameter-sweep simulation campaigns over the
// scenario registry: every run is checkpointed (interrupt with ^C and rerun
// to resume), observables stream to CSV, and cell/wall geometry goes to
// legacy VTK. A deterministic manifest.json summarizes the campaign.
//
//	campaign -scenarios all -dry-run             # list scenarios + sweep grid
//	campaign -scenarios torus -steps 8 \
//	         -sweep "max_cells=4,8" -checkpoint-every 2
//	campaign -scenarios torus,network-y -config campaign.json
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
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"rbcflow/cmd/internal/driver"
	"rbcflow/internal/scenario"
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
	sweep := flag.String("sweep", "", `sweep axes, e.g. "hct=0.1,0.2;level=0,1"`)
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
	flag.Parse()

	cfg := &scenario.CampaignConfig{}
	if *configPath != "" {
		var err error
		if cfg, err = scenario.LoadCampaignConfig(*configPath); err != nil {
			return fail(err)
		}
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
		axes, err := parseSweep(*sweep)
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
	if f.Steps > 0 {
		cfg.Steps = f.Steps
	}
	if f.Ranks > 0 {
		cfg.Ranks = f.Ranks
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *ckptEvery > 0 {
		cfg.CheckpointEvery = *ckptEvery
	}
	if *outEvery > 0 {
		cfg.OutputEvery = *outEvery
	}
	if *timeout != 0 {
		// Pass negatives through so Normalize rejects them loudly instead of
		// the flag silently masking a bad value.
		cfg.TimeoutSec = *timeout
	}
	if *machine != "" {
		cfg.Machine = *machine
	}
	if *noResume {
		cfg.DisableResume = true
	}
	if f.PlanCache != "" {
		cfg.PlanCache = f.PlanCache
	}
	if f.PrecomputeWorkers > 0 {
		cfg.PrecomputeWorkers = f.PrecomputeWorkers
	}
	if f.NoHealth {
		cfg.DisableHealth = true
	}
	if *injectNaN > 0 {
		cfg.InjectNaNStep = *injectNaN
	}
	if f.Tier != "" {
		cfg.Tier = f.Tier
	}
	if *objective != "" {
		cfg.Objective = *objective
	}
	if *topK > 0 {
		cfg.TopK = *topK
	}
	if f.Calibration != "" {
		cfg.CalibrationPath = f.Calibration
	}
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

// parseSweep parses "hct=0.1,0.2;level=0,1".
func parseSweep(s string) (map[string][]float64, error) {
	out := map[string][]float64{}
	for _, axis := range strings.Split(s, ";") {
		axis = strings.TrimSpace(axis)
		if axis == "" {
			continue
		}
		key, vals, ok := strings.Cut(axis, "=")
		if !ok {
			return nil, fmt.Errorf("bad sweep axis %q (want key=v1,v2,...)", axis)
		}
		key = strings.TrimSpace(key)
		for _, v := range strings.Split(vals, ",") {
			x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return nil, fmt.Errorf("bad sweep value %q for %s: %w", v, key, err)
			}
			out[key] = append(out[key], x)
		}
	}
	return out, nil
}

// fail prints the error and yields run's exit code, letting deferred
// cleanup execute (unlike os.Exit).
func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}
