package bie_test

import (
	"math"
	"testing"
	"time"

	"rbcflow/internal/bie"
	"rbcflow/internal/forest"
	"rbcflow/internal/par"
	"rbcflow/internal/telemetry"
	"rbcflow/internal/vessel"
)

// TestTelemetrySpanDecomposition is the observability acceptance check: on
// the grade-2 capped-tube solve, the operator's telemetry breakdown must
// account for the measured wall time — the far + near spans sum to within
// 10% of the matvec span, and far + near + GMRES overhead (solve span minus
// matvec span) lands within 10% of the externally timed solve.
func TestTelemetrySpanDecomposition(t *testing.T) {
	if testing.Short() {
		t.Skip("full capped-tube solve")
	}
	cc := vessel.CappedTubeChannel(8, 4, 1, 6, 2.5, 2)
	surf := bie.NewSurface(forest.NewUniform(cc.Roots, 0), bie.Params{QuadNodes: 5, NearFactor: 0.6})
	bc := cc.Inflow(surf, math.Pi/2)
	reg := telemetry.NewRegistry()
	var iters int
	var wallSolve float64
	par.Run(1, par.SKX(), func(c *par.Comm) {
		op := bie.NewWallOperator(c, surf,
			bie.WithFMM(bie.FMMConfig{DirectBelow: 1 << 40}),
			bie.WithTelemetry(reg))
		t0 := time.Now()
		_, res := bie.Solve(c, op, bc, nil, 1e-6, 45)
		wallSolve = time.Since(t0).Seconds()
		iters = res.Iterations
	})
	if iters == 0 {
		t.Fatal("solve did not iterate")
	}

	snap := reg.Snapshot()
	sec := snap.SecondsMap()
	counts := snap.CounterMap()

	if counts["bie.gmres.solves"] != 1 || counts["bie.gmres.iterations"] != int64(iters) {
		t.Fatalf("gmres counters wrong: solves=%d iters=%d want 1/%d",
			counts["bie.gmres.solves"], counts["bie.gmres.iterations"], iters)
	}
	if counts["bie.matvec.count"] == 0 || counts["bie.matvec.count"] != counts["bie.matvec.far.count"] {
		t.Fatalf("matvec span counts inconsistent: %d total, %d far",
			counts["bie.matvec.count"], counts["bie.matvec.far.count"])
	}

	mv, far, near, solve := sec["bie.matvec"], sec["bie.matvec.far"], sec["bie.matvec.near"], sec["bie.solve"]
	if mv <= 0 || far <= 0 || near <= 0 || solve < mv {
		t.Fatalf("span totals implausible: matvec=%g far=%g near=%g solve=%g", mv, far, near, solve)
	}
	if d := math.Abs(mv - (far + near)); d > 0.10*mv {
		t.Errorf("far (%g) + near (%g) off matvec total (%g) by %.1f%%, want <= 10%%",
			far, near, mv, 100*d/mv)
	}
	// The consumer-facing accounting identity: far + near + GMRES overhead
	// explains the externally measured solve wall time.
	overhead := solve - mv
	if sum := far + near + overhead; math.Abs(sum-wallSolve) > 0.10*wallSolve {
		t.Errorf("far+near+overhead (%g) off measured solve wall (%g) by %.1f%%, want <= 10%%",
			sum, wallSolve, 100*math.Abs(sum-wallSolve)/wallSolve)
	}
}
