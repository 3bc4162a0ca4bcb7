// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5) at single-machine scale. Each benchmark prints the corresponding
// table; timings come from both the Go benchmark framework (real cost) and
// the virtual-time ledger (modeled distributed cost). See EXPERIMENTS.md.
package rbcflow_test

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"rbcflow/internal/bie"
	"rbcflow/internal/experiments"
	"rbcflow/internal/forest"
	"rbcflow/internal/par"
	"rbcflow/internal/telemetry"
	"rbcflow/internal/vessel"
)

func sink(b *testing.B) io.Writer {
	if b.N > 1 {
		return io.Discard
	}
	return os.Stdout
}

// BenchmarkFig4StrongScaling regenerates the Fig. 4 table: fixed problem,
// growing rank counts, component breakdown and parallel efficiency.
func BenchmarkFig4StrongScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.StrongScaling(sink(b), []int{1, 2, 4}, 0, 12, 1)
		last := rows[len(rows)-1]
		eff := rows[0].TotalTime / (last.TotalTime * float64(last.Cores))
		b.ReportMetric(eff, "strong-efficiency")
	}
}

// BenchmarkFig5WeakScalingSKX regenerates the Fig. 5 table (SKX machine
// model, fixed grain per rank).
func BenchmarkFig5WeakScalingSKX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Ranks step by 4x, matching the paper's 4-way refinement per level.
		rows := experiments.WeakScaling(sink(b), par.SKX(), []int{1, 4}, 6, 1)
		last := rows[len(rows)-1]
		b.ReportMetric(rows[0].TotalTime/last.TotalTime, "weak-efficiency")
		b.ReportMetric(100*last.VolFraction, "volfrac-%")
	}
}

// BenchmarkFig6WeakScalingKNL regenerates the Fig. 6 table (KNL model,
// smaller grain per rank, slower cores).
func BenchmarkFig6WeakScalingKNL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.WeakScaling(sink(b), par.KNL(), []int{1, 4}, 3, 1)
		last := rows[len(rows)-1]
		b.ReportMetric(rows[0].TotalTime/last.TotalTime, "weak-efficiency")
	}
}

// BenchmarkFig7Sedimentation regenerates the Fig. 7 study: lower-half
// volume fraction increases as cells settle.
func BenchmarkFig7Sedimentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Sedimentation(sink(b), 10, 2)
		b.ReportMetric(100*res.VolFrac0, "volfrac0-%")
		b.ReportMetric(res.MeanZ0-res.MeanZ1, "settling-dist")
	}
}

// BenchmarkFig9BoundaryConvergence regenerates the Fig. 9 convergence
// study: on-surface velocity error vs patch size under refinement.
func BenchmarkFig9BoundaryConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.BoundaryConvergence(sink(b), []int{0, 1})
		rate := math.Log(rows[0].MaxRelErr/rows[len(rows)-1].MaxRelErr) /
			math.Log(rows[0].PatchSize/rows[len(rows)-1].PatchSize)
		b.ReportMetric(rate, "convergence-order")
		b.ReportMetric(rows[len(rows)-1].MaxRelErr, "final-rel-err")
	}
}

// BenchmarkFig11ShearConvergence regenerates the Fig. 11 study: first-order
// convergence of the collision-aware time stepper.
func BenchmarkFig11ShearConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.ShearConvergence(sink(b), 4, 0.5, []int{2, 4, 8})
		rate := math.Log(rows[0].CentroidErr/rows[len(rows)-1].CentroidErr) /
			math.Log(float64(rows[len(rows)-1].Steps)/float64(rows[0].Steps))
		b.ReportMetric(rate, "dt-order")
	}
}

// BenchmarkFig1VesselDemo runs a scaled instance of the Fig. 1 demo: a
// filled vascular channel advancing one coupled step.
func BenchmarkFig1VesselDemo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.StrongScaling(io.Discard, []int{2}, 0, 10, 1)
	}
}

// BenchmarkCappedSolve records the cost of the edge-graded cap-rim solve:
// graded vs ungraded capped-tube channels at equal accuracy target
// (relative residual 1e-6, which the seed-era scheme could not reach at
// all). Each case times the one-off solver precompute (the adaptive
// singular quadrature), a single operator application, and the full GMRES
// solve, and the results are emitted as BENCH_capgrading.json so the
// solver-cost trajectory is recorded across PRs. The operator-layer half
// then sweeps plan-build worker counts on the graded geometry, times a
// plan-cache cold store vs warm load, and pins that a cached plan solves
// with a bit-identical GMRES residual history; those rows are emitted as
// BENCH_operator.json.
func BenchmarkCappedSolve(b *testing.B) {
	type caseOut struct {
		Grade       int     `json:"grade"`
		Nodes       int     `json:"nodes"`
		PrecomputeS float64 `json:"precompute_s"`
		MatvecS     float64 `json:"matvec_s"`
		SolveS      float64 `json:"solve_s"`
		Iters       int     `json:"iters"`
		Residual    float64 `json:"residual"`
	}
	prm := bie.Params{QuadNodes: 5, NearFactor: 0.6}
	run := func(lv int) caseOut {
		cc := vessel.CappedTubeChannel(6, 4, 1, 6, 2.5, lv, 0.5)
		s := bie.NewSurface(forest.NewUniform(cc.Roots, 0), prm)
		bc := cc.Inflow(s, math.Pi/2)
		out := caseOut{Grade: lv, Nodes: s.NumNodes()}
		par.Run(1, par.SKX(), func(c *par.Comm) {
			t0 := time.Now()
			sv := bie.NewWallOperator(c, s, bie.WithFMM(bie.FMMConfig{DirectBelow: 1 << 40}), bie.WithPlan(bie.BuildQuadPlan(s, 0)))
			out.PrecomputeS = time.Since(t0).Seconds()
			t1 := time.Now()
			sv.Apply(c, bc)
			out.MatvecS = time.Since(t1).Seconds()
			t2 := time.Now()
			_, res := bie.Solve(c, sv, bc, nil, 1e-6, 45)
			out.SolveS = time.Since(t2).Seconds()
			out.Iters = res.Iterations
			out.Residual = res.Residual
		})
		return out
	}
	// Operator-layer sweep (grade-2 geometry): plan build wall time per
	// worker count, disk-cache cold/warm, and solve reproducibility from a
	// cached plan.
	type workerOut struct {
		Workers int     `json:"workers"`
		BuildS  float64 `json:"build_s"`
		Speedup float64 `json:"speedup_vs_1w"`
	}
	type operatorOut struct {
		Nodes       int         `json:"nodes"`
		GOMAXPROCS  int         `json:"gomaxprocs"`
		Workers     []workerOut `json:"workers"`
		PlanColdS   float64     `json:"plan_cache_cold_s"` // build + store
		PlanWarmS   float64     `json:"plan_cache_warm_s"` // fingerprint + load
		WarmSpeedup float64     `json:"warm_speedup"`
		// HistoryBitIdentical: a disk-cached plan reproduces the sequential
		// solver's GMRES residual history bit for bit.
		HistoryBitIdentical bool `json:"residual_history_bit_identical"`
		// PhaseSeconds / PhaseCounts are the telemetry breakdown of the
		// cached-plan solve: per-span wall seconds (bie.matvec far/near,
		// bie.solve) and the deterministic counter core.
		PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
		PhaseCounts  map[string]int64   `json:"phase_counts,omitempty"`
	}
	runOperator := func() operatorOut {
		cc := vessel.CappedTubeChannel(6, 4, 1, 6, 2.5, 2, 0.5)
		s := bie.NewSurface(forest.NewUniform(cc.Roots, 0), prm)
		bc := cc.Inflow(s, math.Pi/2)
		out := operatorOut{Nodes: s.NumNodes(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
		for _, w := range []int{1, 2, 4, 8} {
			t0 := time.Now()
			bie.BuildQuadPlan(s, w)
			row := workerOut{Workers: w, BuildS: time.Since(t0).Seconds()}
			if len(out.Workers) > 0 {
				row.Speedup = out.Workers[0].BuildS / math.Max(row.BuildS, 1e-12)
			} else {
				row.Speedup = 1
			}
			out.Workers = append(out.Workers, row)
		}
		cacheDir := b.TempDir()
		t0 := time.Now()
		_, _, err := bie.PlanFor(s, 0, cacheDir, nil)
		out.PlanColdS = time.Since(t0).Seconds()
		if err != nil {
			b.Fatalf("cold plan: %v", err)
		}
		t1 := time.Now()
		plan, src, err := bie.PlanFor(s, 0, cacheDir, nil)
		out.PlanWarmS = time.Since(t1).Seconds()
		if err != nil || src != bie.PlanDisk {
			b.Fatalf("warm plan: source %q err %v", src, err)
		}
		out.WarmSpeedup = out.PlanColdS / math.Max(out.PlanWarmS, 1e-12)
		var histSeq, histPlan []float64
		par.Run(1, par.SKX(), func(c *par.Comm) {
			// No plan supplied: the sequential rank-local precompute.
			sv := bie.NewWallOperator(c, s, bie.WithFMM(bie.FMMConfig{DirectBelow: 1 << 40}))
			_, res := bie.Solve(c, sv, bc, nil, 1e-6, 45)
			histSeq = res.History
		})
		reg := telemetry.NewRegistry()
		par.Run(1, par.SKX(), func(c *par.Comm) {
			sv := bie.NewWallOperator(c, s,
				bie.WithFMM(bie.FMMConfig{DirectBelow: 1 << 40}),
				bie.WithPlan(plan), bie.WithTelemetry(reg))
			_, res := bie.Solve(c, sv, bc, nil, 1e-6, 45)
			histPlan = res.History
		})
		snap := reg.Snapshot()
		out.PhaseSeconds = snap.SecondsMap()
		out.PhaseCounts = snap.CounterMap()
		out.HistoryBitIdentical = len(histSeq) == len(histPlan) && len(histSeq) > 0
		for i := range histSeq {
			if i < len(histPlan) && math.Float64bits(histSeq[i]) != math.Float64bits(histPlan[i]) {
				out.HistoryBitIdentical = false
			}
		}
		return out
	}
	for i := 0; i < b.N; i++ {
		ungraded := run(-1)
		graded := run(2)
		b.ReportMetric(graded.PrecomputeS/math.Max(ungraded.PrecomputeS, 1e-12), "graded/ungraded-precompute")
		b.ReportMetric(graded.SolveS/math.Max(ungraded.SolveS, 1e-12), "graded/ungraded-solve")
		b.ReportMetric(graded.Residual, "graded-residual")
		op := runOperator()
		last := op.Workers[len(op.Workers)-1]
		b.ReportMetric(last.Speedup, "plan-8w-speedup")
		b.ReportMetric(op.WarmSpeedup, "plan-warm-speedup")
		if i == b.N-1 {
			blob, err := json.MarshalIndent(map[string]any{
				"benchmark": "BenchmarkCappedSolve",
				"geometry":  "capped-tube r=1 L=6 (order 6, NV 4)",
				"note":      "equal accuracy target: GMRES relative residual 1e-6",
				// Recorded so cmd/benchdiff can refuse to gate timings across
				// differently-parallel runners (a 1-core CI artifact is not a
				// regression against a laptop baseline).
				"gomaxprocs": runtime.GOMAXPROCS(0),
				"cases":      []caseOut{ungraded, graded},
			}, "", "  ")
			if err == nil {
				_ = os.WriteFile("BENCH_capgrading.json", append(blob, '\n'), 0o644)
			}
			blob, err = json.MarshalIndent(map[string]any{
				"benchmark": "BenchmarkCappedSolve/operator",
				"geometry":  "capped-tube r=1 L=6 (order 6, NV 4), grade 2",
				"note": "plan build wall time vs worker count (wall-clock; speedup is" +
					" bounded by available cores), plan-cache cold store vs warm load," +
					" and cached-plan GMRES reproducibility",
				"gomaxprocs": runtime.GOMAXPROCS(0),
				"operator":   op,
			}, "", "  ")
			if err == nil {
				_ = os.WriteFile("BENCH_operator.json", append(blob, '\n'), 0o644)
			}
		}
	}
}
