package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rbcflow/internal/bie"
	"rbcflow/internal/core"
	"rbcflow/internal/fmm"
	"rbcflow/internal/kernels"
	"rbcflow/internal/network"
	"rbcflow/internal/par"
	"rbcflow/internal/rbc"
	"rbcflow/internal/scenario"
	"rbcflow/internal/telemetry"
	"rbcflow/internal/trace"
)

// simWorkload is one simulation workload: how its inputs are made from the
// seed, and the few facts the checks need.
type simWorkload struct {
	name string
	// build makes the bundle the way a user would (scenario.Build for the
	// registered scenarios). It is called once per set-up repetition.
	build func(seed int64) (*scenario.Bundle, error)
	// scenarioName is the registered scenario behind build ("" for the
	// harness-built free-space lattice); the traced run times its two
	// construction stages separately.
	scenarioName string
	params       func(seed int64) scenario.Params
	// nominalStepS is the seed commit's time per step on the reference box.
	// It only converts --seconds into a step count; it is a constant so that
	// a faster program steps the same number of times.
	nominalStepS float64
	// setupReps is how many cold set-ups one run performs (lower quartile
	// reported). Set-ups that cost seconds cannot be repeated inside the
	// driver's time limit and run once.
	setupReps int
	// centroidTol bounds the relative difference between the final centroids
	// of the untraced and the traced run.
	centroidTol float64
	// r4Steps > 0 adds a run at 4 virtual ranks to the traced run.
	r4Steps int
	// solveMustConverge fails a step whose boundary solve ran into the
	// GMRES iteration cap.
	solveMustConverge bool
	// identity enforces the accounting identities (off only in the
	// millisecond-scale test workloads, where timer noise dominates).
	identity bool
}

const maxVolumeErr = 0.08

func (w *simWorkload) stepsFor(seconds int) int {
	n := int(math.Round(float64(seconds) / w.nominalStepS))
	if n < 8 {
		n = 8
	}
	return n
}

// simOpts is one invocation of a simulation workload.
type simOpts struct {
	seed   int64
	steps  int
	traced bool
	tmpDir string // scratch space (plan caches), removed by the caller
	outDir string // where the trace file goes
	// tamper, when non-nil, edits the observable rows before they are
	// checked (tests inject a bad VolumeErr through it).
	tamper func(rows []scenario.ObsRow)
}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

func newHealth(reg *telemetry.Registry) *trace.Health {
	return trace.NewHealth(trace.HealthConfig{Log: quietLog}, nil, reg)
}

// setupOut is one cold set-up.
type setupOut struct {
	b                         *scenario.Bundle
	plan                      *bie.QuadPlan
	planDir                   string
	buildS, planS, newS, allS float64
}

// setup does what a user's first run pays before the first step: build the
// scenario, materialise the wall plan into an empty cache with every core,
// and construct the simulation once.
func (w *simWorkload) setup(seed int64, planDir string) (*setupOut, error) {
	su := &setupOut{planDir: planDir}
	t0 := time.Now()
	b, err := w.build(seed)
	if err != nil {
		return nil, err
	}
	su.b = b
	su.buildS = time.Since(t0).Seconds()
	if b.Surf != nil {
		tp := time.Now()
		plan, src, err := b.Geom.WallPlan(0, planDir, nil)
		if err != nil {
			return nil, err
		}
		if src != bie.PlanBuilt {
			return nil, fmt.Errorf("%s: set-up was not cold: plan came from %q", w.name, src)
		}
		su.plan = plan
		su.planS = time.Since(tp).Seconds()
	}
	tn := time.Now()
	par.Run(1, par.SKX(), func(c *par.Comm) {
		cfg := b.Config
		cfg.WallPlan = su.plan
		core.New(c, cfg, freshCells(b), b.Surf, b.G)
	})
	su.newS = time.Since(tn).Seconds()
	su.allS = time.Since(t0).Seconds()
	return su, nil
}

// freshCells returns a private copy of the bundle's cell list. At one rank
// core.New keeps a sub-slice of the list it is given and Step replaces its
// elements, so a run advances the caller's slice in place; every run here
// starts from the bundle's initial cells (the cell objects themselves are
// never written, only replaced).
func freshCells(b *scenario.Bundle) []*rbc.Cell {
	return append([]*rbc.Cell(nil), b.Cells...)
}

// execOut is one ExecuteContext run seen from outside.
type execOut struct {
	rows     []scenario.ObsRow
	stamps   []float64 // seconds from the call to each row
	wallS    float64
	out      *scenario.RunOutcome
	verdicts []trace.Verdict
	err      error
}

func (e *execOut) stepS() []float64 {
	d := make([]float64, len(e.stamps))
	prev := 0.0
	for i, s := range e.stamps {
		d[i] = s - prev
		prev = s
	}
	return d
}

// execute runs the bundle through the entry point every driver uses, with
// the plan warm in the bundle's Geom and the default-on health monitor.
func execute(b *scenario.Bundle, steps, ranks int, planDir string) *execOut {
	run := *b
	run.Cells = freshCells(b)
	health := newHealth(nil)
	e := &execOut{}
	t0 := time.Now()
	e.out, e.err = scenario.ExecuteContext(context.Background(), &run, scenario.RunOptions{
		Ranks: ranks, Steps: steps, Health: health, PlanCache: planDir,
		OnRow: func(row scenario.ObsRow) {
			e.stamps = append(e.stamps, time.Since(t0).Seconds())
		},
	})
	e.wallS = time.Since(t0).Seconds()
	if e.out != nil {
		e.rows = e.out.Rows
	}
	e.verdicts = health.Verdicts()
	return e
}

func finite3(v [3]float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// checkRun applies the per-step output checks to one run and returns how
// many of its steps failed, with the reasons.
func (w *simWorkload) checkRun(label string, rows []scenario.ObsRow, steps int, gmresCap int, cents [][3]float64, verdicts []trace.Verdict, runErr error) (failed int, problems []string) {
	if runErr != nil {
		problems = append(problems, fmt.Sprintf("%s: run failed: %v", label, runErr))
	}
	bad := map[int]bool{}
	for _, r := range rows {
		switch {
		case math.IsNaN(r.VolumeErr) || math.Abs(r.VolumeErr) > maxVolumeErr:
			bad[r.Step] = true
			problems = append(problems, fmt.Sprintf("%s: step %d: |VolumeErr| %.3g > %.2f", label, r.Step, r.VolumeErr, maxVolumeErr))
		case !finite3([3]float64{r.MeanX, r.MeanY, r.MeanZ}):
			bad[r.Step] = true
			problems = append(problems, fmt.Sprintf("%s: step %d: non-finite mean centroid", label, r.Step))
		case w.solveMustConverge && r.GMRES >= gmresCap:
			bad[r.Step] = true
			problems = append(problems, fmt.Sprintf("%s: step %d: boundary solve hit the iteration cap (%d)", label, r.Step, gmresCap))
		}
	}
	for _, v := range verdicts {
		if v.Fatal || v.Check == "collision.unresolved" {
			bad[v.Step] = true
			problems = append(problems, fmt.Sprintf("%s: health verdict %s", label, v))
		}
	}
	failed = len(bad)
	if missing := steps - len(rows); missing > 0 {
		failed += missing
		problems = append(problems, fmt.Sprintf("%s: %d of %d steps produced no row", label, missing, steps))
	}
	for i, c := range cents {
		if !finite3(c) {
			problems = append(problems, fmt.Sprintf("%s: final centroid of cell %d is not finite", label, i))
			break
		}
	}
	if len(problems) > 0 && failed == 0 {
		failed = 1
	}
	return failed, problems
}

// relDiff is the max-norm difference of two centroid sets relative to the
// larger of 1 and their max-norm.
func relDiff(a, b [][3]float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	scale, diff := 1.0, 0.0
	for i := range a {
		for d := 0; d < 3; d++ {
			scale = math.Max(scale, math.Max(math.Abs(a[i][d]), math.Abs(b[i][d])))
			diff = math.Max(diff, math.Abs(a[i][d]-b[i][d]))
		}
	}
	return diff / scale
}

// runSim is one invocation of a simulation workload: cold set-up, the
// untraced run that yields the end-to-end metrics, and — with traced set —
// the traced run that yields the per-layer ones.
func runSim(w *simWorkload, o simOpts) (*result, error) {
	res := newResult()

	var su *setupOut
	var setups []float64
	for r := 0; r < w.setupReps; r++ {
		var err error
		su, err = w.setup(o.seed, filepath.Join(o.tmpDir, fmt.Sprintf("plans-%d", r)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, su.allS)
	}
	b := su.b
	gmresCap := b.Config.GMRESMax
	// The lower quartile, not the median: this box runs at one of two speeds
	// (x1.64 apart) that alternate within tens of milliseconds, so repeated
	// sub-millisecond set-ups fall into a fast and a slow group, and the
	// median jumps from one to the other when the slow share passes a half.
	res.e2e["setup_s"] = percentile(setups, 25)
	if len(setups) > 1 {
		fmt.Fprintf(os.Stderr, "setup: %d reps, quartiles %.3g %.3g %.3g s\n", len(setups),
			percentile(setups, 25), percentile(setups, 50), percentile(setups, 75))
	}

	un := execute(b, o.steps, 1, su.planDir)
	if o.tamper != nil {
		o.tamper(un.rows)
	}
	for i, d := range un.stepS() {
		if i < len(un.rows) {
			fmt.Fprintf(os.Stderr, "step %d: %.3fs, GMRES %d, contacts %d\n", un.rows[i].Step, d, un.rows[i].GMRES, un.rows[i].Contacts)
		}
	}
	res.e2e["unit_s"] = median(un.stepS())
	res.e2e["run_s"] = un.wallS
	var unCents [][3]float64
	if un.out != nil {
		unCents = un.out.Centroids
		if b.Surf != nil && un.out.PlanSource != string(bie.PlanShared) {
			res.fail(1, "%s: measured run did not find the plan warm (source %q)", w.name, un.out.PlanSource)
		}
	}
	res.attempted = o.steps
	res.failAll(w.checkRun("untraced", un.rows, o.steps, gmresCap, unCents, un.verdicts, un.err))

	if o.traced {
		if err := w.traceRun(res, su, un, o); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceRun is the traced half of a run. Everything it reports is measured
// from here: calls into each layer's public functions wrapped in harness
// spans, step-level numbers the program already hands out (StepStats), and
// the counters of a telemetry registry attached to the stepped simulation.
func (w *simWorkload) traceRun(res *result, su *setupOut, un *execOut, o simOpts) error {
	b := su.b
	L := res.layer

	L["scenario.build_s"] = su.buildS
	L["core.new_s"] = su.newS
	if err := w.stageTimes(L, o.seed); err != nil {
		return err
	}
	if su.plan != nil {
		if err := planMetrics(L, b.Surf, su, o.tmpDir); err != nil {
			return err
		}
	}

	rec := newRecorder(fmt.Sprintf("%s/seed%d", w.name, o.seed), time.Now())
	tr := stepTraced(b, su.plan, o.steps, rec)
	res.attempted += o.steps
	res.failAll(w.checkRun("traced", tr.rows, o.steps, b.Config.GMRESMax, tr.cents, tr.verdicts, nil))
	if un.out != nil {
		if d := relDiff(un.out.Centroids, tr.cents); !(d <= w.centroidTol) {
			res.fail(1, "final centroids of the untraced and traced runs differ by %.3g (tolerance %.0e)", d, w.centroidTol)
		}
	}
	for _, p := range tr.problems {
		res.fail(1, "%s", p)
	}
	tr.metrics(L, un)
	for _, r := range tr.replays {
		fmt.Fprintf(os.Stderr, "replay step %d: layer calls %.3fs, step %.3fs, GMRES %d, contacts %d\n",
			r.step, r.callsS, r.stepWallS, r.gmresIters, r.contacts)
	}

	// Accounting identities: the replayed layer calls explain the step, and
	// the step's own phase split explains its wall time.
	if w.identity {
		// A replay and the step it is compared with run one after the other,
		// and the box's speed differs by up to a tenth between two such
		// moments, so a single replay can miss the limit by chance. A layer
		// that the replay leaves out is missing from every replay.
		if lo, hi := tr.unattributedRange(); lo > 0.10 || hi < -0.10 {
			res.fail(1, "every replayed step leaves more than 10%% of its time unattributed (%.1f%% to %.1f%%)", 100*lo, 100*hi)
		}
		if d := tr.phaseGap(); math.Abs(d) > 0.02 {
			res.fail(1, "core.step.* phases sum to %.1f%% away from the step wall time (limit 2%%)", 100*d)
		}
	}

	// The paper's cost categories, from the untraced run's 1-rank ledger.
	if un.out != nil && un.out.Ledger.VirtualTime > 0 {
		for _, cat := range []string{"COL", "BIE-solve", "BIE-FMM", "Other-FMM", "Other"} {
			L["par.virt."+cat+"_frac"] = un.out.Ledger.TimeByLabel[cat] / un.out.Ledger.VirtualTime
		}
	}
	if w.r4Steps > 0 {
		w.ranks4(res, b, un, su.planDir)
	}

	kernelMetrics(L)
	L["fmm.repeat_maxdiff"] = fmmRepeatMaxDiff(b)
	L["proc.peak_rss_mb"] = peakRSSMB()

	path, err := writeTrace(o.outDir, w.name, o.seed, rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %s (%d spans)\n", path, len(rec.spans))
	return nil
}

// stageTimes times the scenario's two construction stages on throwaway
// objects: the geometry stage (network.geometry_s on the network family,
// whose flow solve is also timed on its own) and the population stage
// (cell seeding and boundary data, vessel.fill_s).
func (w *simWorkload) stageTimes(L map[string]float64, seed int64) error {
	if w.scenarioName == "" {
		return nil
	}
	scn, err := scenario.Get(w.scenarioName)
	if err != nil {
		return err
	}
	p := w.params(seed)
	p.Defaults()
	t0 := time.Now()
	g, err := scn.BuildGeometry(p)
	if err != nil {
		return err
	}
	geomS := time.Since(t0).Seconds()
	t0 = time.Now()
	if _, err := scn.Populate(g, p); err != nil {
		return err
	}
	L["vessel.fill_s"] = time.Since(t0).Seconds()
	if g.Net != nil {
		L["network.geometry_s"] = geomS
		t0 = time.Now()
		if _, err := network.SolveFlow(g.Net, p.Mu); err != nil {
			return err
		}
		L["network.flow_s"] = time.Since(t0).Seconds()
	}
	return nil
}

// planMetrics times the plan layer directly: the build at one worker
// against the cold build the set-up just did with every core, and a
// save/load round trip.
func planMetrics(L map[string]float64, surf *bie.Surface, su *setupOut, tmpDir string) error {
	workers := runtime.GOMAXPROCS(0)
	L["bie.plan.build_s"] = su.planS
	t0 := time.Now()
	bie.BuildQuadPlan(surf, 1)
	w1 := time.Since(t0).Seconds()
	L["bie.plan.build_w1_s"] = w1
	L["bie.plan.par_eff"] = w1 / (float64(workers) * su.planS)
	L["bie.plan.nodes"] = float64(su.plan.NumNodes)

	path := filepath.Join(tmpDir, "roundtrip.qplan")
	t0 = time.Now()
	if err := bie.SavePlan(path, su.plan); err != nil {
		return err
	}
	L["bie.plan.save_s"] = time.Since(t0).Seconds()
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	L["bie.plan.bytes"] = float64(st.Size())
	t0 = time.Now()
	if _, err := bie.LoadPlan(path); err != nil {
		return err
	}
	L["bie.plan.load_s"] = time.Since(t0).Seconds()
	return nil
}

// ranks4 runs the first r4Steps steps again at 4 virtual ranks. Ranks are
// token-serialised, so the modelled (virtual) time is the scaling signal.
func (w *simWorkload) ranks4(res *result, b *scenario.Bundle, un *execOut, planDir string) {
	L := res.layer
	n := w.r4Steps
	r4 := execute(b, n, 4, planDir)
	res.attempted += n
	var cents [][3]float64
	if r4.out != nil {
		cents = r4.out.Centroids
	}
	res.failAll(w.checkRun("4-rank", r4.rows, n, b.Config.GMRESMax, cents, r4.verdicts, r4.err))
	if r4.out == nil || len(r4.rows) < n || len(un.rows) < n {
		return
	}
	// Same state after n steps at 1 and at 4 ranks, read off the rows both
	// runs produced (the 1-rank run went on past step n).
	a, c := un.rows[n-1], r4.rows[n-1]
	d := relDiff([][3]float64{{a.MeanX, a.MeanY, a.MeanZ}, {a.CellVolume, 0, 0}},
		[][3]float64{{c.MeanX, c.MeanY, c.MeanZ}, {c.CellVolume, 0, 0}})
	if !(d <= 1e-6) {
		res.fail(1, "1-rank and 4-rank runs differ by %.3g after %d steps (tolerance 1e-06)", d, n)
	}
	led := r4.out.Ledger
	virt := led.VirtualTime / float64(n)
	L["par.step_virt_r4_s"] = virt
	L["par.strong_eff_r4"] = un.stamps[n-1] / (4 * led.VirtualTime)
	L["par.comm_bytes_per_step_r4"] = float64(led.CommBytes) / float64(n)
	L["par.phases_per_step_r4"] = float64(led.Phases) / float64(n)
}

// kernelMetrics pushes 1e6 fixed pairs through each Stokes kernel's Eval,
// the call the direct summation makes once per source-target pair.
func kernelMetrics(L map[string]float64) {
	const n = 1000
	pos := make([][3]float64, n)
	for i := range pos {
		f := float64(i)
		pos[i] = [3]float64{math.Sin(f), math.Cos(1.3 * f), math.Sin(0.7*f + 1)}
	}
	run := func(k kernels.Kernel) float64 {
		q := make([]float64, k.SrcDim())
		for i := range q {
			q[i] = 1 / float64(i+1)
		}
		dst := make([]float64, k.OutDim())
		t0 := time.Now()
		for _, x := range pos {
			for _, y := range pos {
				k.Eval(dst, x[0]-y[0], x[1]-y[1], x[2]-y[2], q)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / (n * n)
	}
	L["kernels.stokeslet_ns_per_pair"] = run(kernels.Stokeslet{Mu: 1})
	L["kernels.doublelayer_ns_per_pair"] = run(kernels.StokesDoubleTensor{})
}

// fmmRepeatMaxDiff evaluates the tree FMM twice on identical input (the
// workload's initial cell points, unit strengths) and returns the largest
// difference between the two results; 0 means the tree path is repeatable.
func fmmRepeatMaxDiff(b *scenario.Bundle) float64 {
	var pos [][3]float64
	for _, c := range b.Cells {
		pos = append(pos, c.Points()...)
	}
	q := make([]float64, 3*len(pos))
	for i := range q {
		q[i] = 1 + float64(i%7)/7
	}
	fc := b.Config.FMM
	e := fmm.NewEvaluator(fmm.Config{Kernel: kernels.Stokeslet{Mu: 1},
		Order: fc.Order, LeafSize: fc.LeafSize, DirectBelow: 1}) // 1: always the tree
	u1 := e.Evaluate(pos, q, pos)
	u2 := e.Evaluate(pos, q, pos)
	var d float64
	for i := range u1 {
		d = math.Max(d, math.Abs(u1[i]-u2[i]))
	}
	return d
}
