// Package driver is what cmd/rbcflow, cmd/network and cmd/campaign share:
// one binder for the run and observability flags, the set-up those flags ask
// for, and running and reporting a single run on either tier. cmd/serve
// binds the run-default half of the flags through BindRun.
package driver

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"rbcflow/internal/scenario"
	"rbcflow/internal/telemetry"
	"rbcflow/internal/trace"
)

// Flags holds the values of the shared flags.
type Flags struct {
	Steps, Ranks      int
	Out, PlanCache    string
	Tier, Calibration string
	NoHealth          bool

	TelemetryOut, DebugAddr, TraceOut string
}

// BindRun declares the run-default flags on fs — steps and ranks with the
// caller's defaults, the plan cache and the surrogate calibration — the set
// every front end of the run engine takes, the serve daemon included.
func BindRun(fs *flag.FlagSet, steps, ranks int) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Steps, "steps", steps, "time steps per run")
	fs.IntVar(&f.Ranks, "ranks", ranks, "ranks per run")
	fs.StringVar(&f.PlanCache, "plan-cache", "", "wall-plan disk cache directory (content-addressed; reuses solver precompute across runs)")
	fs.StringVar(&f.Calibration, "calibration", "", "surrogate calibration artifact applied to surrogate-tier velocities (see network -calibrate)")
	return f
}

// Bind declares the run-default flags, -out and the per-invocation flags on
// fs; steps, ranks and out are the driver's own defaults (a campaign's zeros
// mean "keep the config file's").
func Bind(fs *flag.FlagSet, steps, ranks int, out string) *Flags {
	f := BindRun(fs, steps, ranks)
	fs.StringVar(&f.Out, "out", out, "output directory for VTK/CSV/checkpoint (empty = none)")
	fs.StringVar(&f.Tier, "tier", "", `simulation tier: "" / "bie" (full pipeline) or "surrogate" (reduced-order network solve, network scenarios only); campaigns also take "mixed" (surrogate sweep + top-k BIE promotion)`)
	fs.BoolVar(&f.NoHealth, "no-health", false, "disable the numerical-health monitor (NaN/Inf guards, GMRES stall detection, flight recorder)")
	fs.StringVar(&f.TelemetryOut, "telemetry-out", "", "write the metrics snapshot (campaigns: per-run aggregates + totals) as JSON to this path")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", `serve /metrics, /trace and /debug/pprof on this address (e.g. "localhost:6060")`)
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the execution timeline as Chrome trace-event JSON to this path (Perfetto-viewable)")
	return f
}

// Observe builds what the observability flags ask for: a registry when any
// of them is set, with a timeline recorder attached for -trace-out and
// -debug-addr, and the debug listener. The returned stop func writes the
// -trace-out file — a failed or health-tripped run still leaves a timeline
// worth exporting — and shuts the listener down gracefully (in-flight
// scrapes finish first); defer it, so it runs on every exit path.
func (f *Flags) Observe() (reg *telemetry.Registry, rec *trace.Recorder, stop func(), err error) {
	if f.TelemetryOut != "" || f.DebugAddr != "" || f.TraceOut != "" {
		reg = telemetry.NewRegistry()
	}
	if f.TraceOut != "" || f.DebugAddr != "" {
		rec = trace.New(0)
		reg.SetTracer(rec)
	}
	shutdown := func(context.Context) error { return nil }
	if f.DebugAddr != "" {
		var addr string
		if addr, shutdown, err = telemetry.ServeDebug(f.DebugAddr, reg); err != nil {
			return nil, nil, nil, err
		}
		fmt.Printf("debug listener on http://%s (/metrics, /trace, /debug/pprof)\n", addr)
	}
	return reg, rec, func() {
		if f.TraceOut != "" {
			if err := rec.WriteChromeFile(f.TraceOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
			} else {
				fmt.Printf("execution timeline written to %s\n", f.TraceOut)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = shutdown(ctx)
	}, nil
}

// Runner maps the run flags onto the engine's per-run defaults.
func (f *Flags) Runner() *scenario.Runner {
	return &scenario.Runner{
		Ranks: f.Ranks, Steps: f.Steps, OutDir: f.Out,
		PlanCache: f.PlanCache, DisableHealth: f.NoHealth, CalibrationPath: f.Calibration,
	}
}

// Run executes one spec of either tier on rn under the observability the
// flags ask for, prints the end-of-run summary, writes -telemetry-out and
// -trace-out, and returns the process exit code.
func (f *Flags) Run(rn *scenario.Runner, spec scenario.RunSpec) int {
	reg, _, stop, err := f.Observe()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stop()
	spec.Telemetry = reg
	r := rn.Run(context.Background(), spec)
	if r.Surrogate != nil {
		printSurrogate(rn, r)
	}
	if r.Status != "ok" {
		fmt.Fprintf(os.Stderr, "%s: %s\n", r.Status, r.Error)
		return 1
	}
	out := r.Outcome
	if out == nil {
		return 0
	}
	if out.PlanFingerprint != "" {
		fmt.Printf("wall plan %.12s (%s)\n", out.PlanFingerprint, out.PlanSource)
	}
	for _, row := range out.Rows {
		fmt.Printf("step %d: GMRES %d, contacts %d\n", row.Step, row.GMRES, row.Contacts)
	}
	fmt.Printf("modeled wall time %.3fs; breakdown:\n", out.Ledger.VirtualTime)
	for _, k := range []string{"COL", "BIE-solve", "BIE-FMM", "Other-FMM", "Other"} {
		fmt.Printf("  %-10s %8.3fs\n", k, out.Ledger.TimeByLabel[k])
	}
	if sec := out.Telemetry.SecondsMap(); len(sec) > 0 {
		fmt.Println("measured per-phase wall time:")
		for _, k := range []string{"forces", "boundary", "intercell", "implicit", "collision", "commit"} {
			fmt.Printf("  %-10s %8.3fs\n", k, sec["core.step."+k])
		}
	}
	if f.TelemetryOut != "" {
		if err := telemetry.WriteJSONFile(f.TelemetryOut, out.Telemetry); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("telemetry snapshot written to %s\n", f.TelemetryOut)
	}
	if len(r.Outputs) > 0 {
		fmt.Printf("wrote %d files under %s\n", len(r.Outputs), f.Out)
	}
	return 0
}

// printSurrogate prints a reduced-order tier run: the coupled
// flow/haematocrit/viscosity table of the solved network, then the
// fixed-point and conservation summary.
func printSurrogate(rn *scenario.Runner, r scenario.RunRecord) {
	net, res := r.Network, r.Solution
	vel := res.MeanVelocity
	if res.CorrectedVelocity != nil {
		vel = res.CorrectedVelocity
	}
	fmt.Printf("%s (surrogate tier): %d nodes, %d segments\n", r.Scenario, len(net.Nodes), len(net.Segs))
	fmt.Println("  seg   A ->  B   radius   length     flow  haematocrit   mu_eff  velocity")
	for si, s := range net.Segs {
		fmt.Printf("  %3d %3d -> %2d %8.3f %8.3f %8.4f %12.4f %8.4f %9.4f\n",
			si, s.A, s.B, s.Radius, net.SegmentLength(si), res.Flow.Q[si],
			res.Hct[si], res.Mu[si], vel[si])
	}
	solver := "dense"
	if res.Sparse {
		solver = fmt.Sprintf("sparse CG (%d iters)", res.CGIters)
	}
	fmt.Printf("fixed point: converged=%v in %d iteration(s), residual %.2e (%s solver)\n",
		res.Converged, res.Iters, res.Residual, solver)
	fmt.Printf("conservation: flow imbalance %.2e, RBC-flux imbalance %.2e\n",
		res.FlowImbalance, res.RBCImbalance)
	if cal, _ := rn.LoadCalibration(); cal != nil {
		fmt.Printf("calibration: %.12s (%d regime(s))\n", cal.Fingerprint, len(cal.Regimes))
	}
	fmt.Printf("solved in %s\n", time.Duration(r.TierSeconds*float64(time.Second)).Round(time.Microsecond))
}
