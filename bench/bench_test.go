package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"rbcflow/internal/scenario"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(b)) }

func TestMedianQuartilesSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// -> [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if !near(q1, 3.5) || !near(q2, 13.5) || !near(q3, 31) {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) -> [10.0, 20.0, 30.0]
	q1, _, q3 = quartiles([]float64{30, 10, 20})
	if !near(q1, 10) || !near(q3, 30) {
		t.Errorf("quartiles of 3 = %v %v", q1, q3)
	}
	if got := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}); !near(got, (31-3.5)/13.5) {
		t.Errorf("spread = %v", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {16, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "replay", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "core.boundary", Start: 1, End: 8},
		{ID: 2, Parent: 1, Name: "bie.solve", Start: 1, End: 5},
		{ID: 3, Parent: 2, Name: "bie.matvec", Start: 2, End: 3},
		{ID: 4, Parent: 2, Name: "bie.matvec", Start: 3, End: 4.5},
		{ID: 5, Parent: 1, Name: "forest.closest", Start: 5, End: 7},
		{ID: 6, Parent: -1, Name: "other", Start: 20, End: 21},
	}
	self := selfTimes(spans)
	want := []float64{3, 1, 1.5, 1, 1.5, 2, 1}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	byName, calls := under(spans, 0)
	if calls != 6 { // bie.solve 4 + forest.closest 2: the root's grandchildren
		t.Errorf("layer calls under the root = %v, want 6", calls)
	}
	if byName["bie.matvec"] != 2.5 || byName["core.boundary"] != 7 || byName["other"] != 0 {
		t.Errorf("byName = %v", byName)
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder("run-1", time.Now())
	stopA := rec.Begin("a")
	stopB := rec.Begin("b")
	stopB()
	stopC := rec.Begin("c")
	stopC()
	stopA()
	if len(rec.spans) != 3 || rec.spans[1].Parent != 0 || rec.spans[2].Parent != 0 || rec.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", rec.spans)
	}
	for _, s := range rec.spans {
		if s.Run != "run-1" || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
	var none *Recorder
	none.Begin("x")() // a nil recorder records nothing and does not panic
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "m", Better: "lower", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m, m * 1.001, m * 0.999, m * 1.002, m * 0.998} }
	if _, _, _, v := verdict(d, steady(2), steady(2.1)); v != "ok" {
		t.Errorf("+5%% within a 10%% bound: %s", v)
	}
	if _, _, ratio, v := verdict(d, steady(2), steady(2.3)); v != "regressed" || !near(ratio, 1.15) {
		t.Errorf("+15%%: %s ratio %v", v, ratio)
	}
	if _, _, _, v := verdict(d, steady(2), steady(1.5)); v != "ok" {
		t.Errorf("an improvement: %s", v)
	}
	if _, _, _, v := verdict(d, []float64{1, 2, 3, 4, 5}, steady(3)); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s", v)
	}
	h := metricDef{Name: "x", Better: "higher", Bound: 0.10}
	if _, _, _, v := verdict(h, steady(2), steady(1.7)); v != "regressed" {
		t.Errorf("higher-is-better drop: %s", v)
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// Every metric and workload the harness prints is declared in
// BENCHMARK.json, and the other way round.
func TestManifestAgreesWithHarness(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(raw))
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Workloads, workloads) {
		t.Errorf("workloads differ:\n manifest %+v\n harness  %+v", m.Workloads, workloads)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n manifest %+v\n harness  %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness table")
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) || m.RunSeconds != runSeconds {
		t.Errorf("paths %v run_seconds %d", m.Paths, m.RunSeconds)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better=%q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if _, ok := simWorkloads()[w.Name]; !ok && w.Name != serveMix().name {
			t.Errorf("workload %s is declared but the harness cannot run it", w.Name)
		}
	}
}

// declared fails the test for every metric a run set that is not declared,
// and for every declared end-to-end metric the run did not set.
func declared(t *testing.T, res *result) {
	t.Helper()
	names := func(defs []metricDef) map[string]bool {
		m := map[string]bool{}
		for _, d := range defs {
			m[d.Name] = true
		}
		return m
	}
	e2e, layer := names(endToEnd), names(perLayer)
	for k := range res.e2e {
		if !e2e[k] {
			t.Errorf("run set undeclared end-to-end metric %s", k)
		}
	}
	for k := range e2e {
		if v, ok := res.e2e[k]; !ok || v <= 0 {
			t.Errorf("end-to-end metric %s = %v, want a positive value", k, v)
		}
	}
	for k := range res.layer {
		if !layer[k] {
			t.Errorf("run set undeclared per-layer metric %s", k)
		}
	}
	if got := res.line(false).Metrics; len(got) != len(endToEnd) {
		t.Errorf("untraced result line has %d metrics, want %d", len(got), len(endToEnd))
	}
	if got := res.line(true).Metrics; len(got) != len(perLayer) {
		t.Errorf("traced result line has %d metrics, want %d", len(got), len(perLayer))
	}
}

func mustPass(t *testing.T, res *result, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || len(res.problems) != 0 {
		t.Errorf("failed %d of %d: %s", res.failed, res.attempted, strings.Join(res.problems, "; "))
	}
	declared(t, res)
}

// The free-space builder at 2×2×2 = 8 cells, two steps, untraced and traced
// (replays included), and the same run with a bad VolumeErr injected.
func TestSmokeFreeLattice(t *testing.T) {
	w := freeLattice(2)
	w.identity = false // millisecond steps: timer noise, not accounting
	o := simOpts{seed: 3, steps: 2, traced: true, tmpDir: t.TempDir(), outDir: t.TempDir()}
	res, err := runSim(w, o)
	mustPass(t, res, err)
	if res.attempted != 4 {
		t.Errorf("attempted = %d, want 2 untraced + 2 traced steps", res.attempted)
	}
	for _, k := range []string{"core.step.implicit_s", "rbc.implicit_s", "collision.resolve_s", "fmm.cells2cells_s", "kernels.stokeslet_ns_per_pair"} {
		if res.layer[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, res.layer[k])
		}
	}
	if res.layer["bie.solve_s"] != 0 || res.layer["forest.closest_s"] != 0 {
		t.Errorf("free space must bypass the boundary solver: %v %v", res.layer["bie.solve_s"], res.layer["forest.closest_s"])
	}
	if _, err := os.Stat(o.outDir + "/free_lattice.trace.json"); err != nil {
		t.Errorf("trace file: %v", err)
	}

	o.traced = false
	o.tamper = func(rows []scenario.ObsRow) { rows[1].VolumeErr = 0.5 }
	res, err = runSim(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 || res.line(false).Correct || !strings.Contains(strings.Join(res.problems, ";"), "VolumeErr") {
		t.Errorf("injected VolumeErr: failed=%d problems=%v", res.failed, res.problems)
	}
}

// A walled workload at test size (the capsule: 6 patches, 3 cells) through
// the whole traced path: plan metrics, the boundary-solve replay, the
// 4-rank run and its comparison with the 1-rank rows.
func TestSmokeWalled(t *testing.T) {
	w := registered("capsule_mini", "capsule", func(seed int64) scenario.Params {
		return scenario.Params{MaxCells: 3, Seed: seed}
	})
	w.identity = false
	w.r4Steps = 2
	res, err := runSim(w, simOpts{seed: 2, steps: 2, traced: true, tmpDir: t.TempDir(), outDir: t.TempDir()})
	mustPass(t, res, err)
	for _, k := range []string{"bie.plan.build_s", "bie.plan.build_w1_s", "bie.plan.bytes", "bie.solve_s", "bie.matvec.far_s",
		"bie.evalvelocity_s", "forest.closest_s", "fmm.cells2wall_s", "bie.gmres.iters_per_solve", "fmm.direct_calls",
		"par.step_virt_r4_s", "par.strong_eff_r4", "vessel.fill_s", "core.new_s"} {
		if res.layer[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, res.layer[k])
		}
	}
}

// The two scenario-backed workloads build what the README says they build.
func TestWalledWorkloadInputs(t *testing.T) {
	for _, c := range []struct {
		w              *simWorkload
		cells, patches int
	}{{torusDense(), 31, 24}, {ynetWall(), 8, 150}} {
		for _, seed := range []int64{1, 7} {
			b, err := c.w.build(seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(b.Cells) != c.cells || b.Surf.F.NumPatches() != c.patches {
				t.Errorf("%s seed %d: %d cells, %d patches; want %d, %d", c.w.name, seed, len(b.Cells), b.Surf.F.NumPatches(), c.cells, c.patches)
			}
			if b.Config.Dt != 0.005 {
				t.Errorf("%s: dt %v", c.w.name, b.Config.Dt)
			}
		}
		if got := c.w.stepsFor(16); got != 8 {
			t.Errorf("%s: %d steps at 16 s, want 8", c.w.name, got)
		}
	}
	// Another seed is another input, the same seed the same input.
	for _, w := range simWorkloads() {
		first := func(seed int64) float64 {
			b, err := w.build(seed)
			if err != nil {
				t.Fatal(err)
			}
			return b.Cells[0].X[0][0]
		}
		if first(1) == first(2) || first(2) != first(2) {
			t.Errorf("%s: inputs do not follow the seed", w.name)
		}
	}
	if got := len(latticeBundle(6, 1).Cells); got != 216 {
		t.Errorf("free_lattice has %d cells, want 216", got)
	}
}

// The serve workload at test size: a free-space BIE-tier class (no plan to
// build) and shallow trees on both sides of the surrogate's solver switch.
func TestSmokeServe(t *testing.T) {
	w := serveMix()
	w.bieScenario, w.bieParams, w.steps, w.wantPlanBuilds = "shear", map[string]float64{"sph_order": 3}, 1, 0
	w.denseDepth, w.sparseDepth = 3, 12
	res, err := runServe(w, serveOpts{seed: 5, nBIE: 3, nSurPerClass: 4, traced: true, tmpDir: t.TempDir(), outDir: t.TempDir()})
	mustPass(t, res, err)
	if res.attempted != 1+3+8 {
		t.Errorf("attempted = %d, want 12", res.attempted)
	}
	for _, k := range []string{"serve.bie_req_s", "serve.sur_dense_req_s", "serve.sur_sparse_req_s", "serve.run_s",
		"surrogate.solve_dense_s", "surrogate.solve_sparse_s", "serve.batches"} {
		if res.layer[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, res.layer[k])
		}
	}

	// A daemon that builds a plan when none was expected fails the ledger check.
	w.wantPlanBuilds = 1
	res, err = runServe(w, serveOpts{seed: 5, nBIE: 1, nSurPerClass: 1, tmpDir: t.TempDir(), outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 {
		t.Error("plan-build ledger mismatch was not reported")
	}
	if nb, ns := serveMix().counts(16); nb != 8 || ns != 50 {
		t.Errorf("counts(16) = %d, %d; want 8, 50", nb, ns)
	}
}
