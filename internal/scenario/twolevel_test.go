package scenario

import (
	"testing"

	"rbcflow/internal/bie"
	"rbcflow/internal/fmm"
	"rbcflow/internal/la"
	"rbcflow/internal/par"
)

// TestTwoLevelSolveOnNetworkY: on the registered Y bifurcation with its own
// boundary data — the thin-tube geometry the coarse level is built for — the
// two-level solve returns the unpreconditioned density at tolerance 1e-10 to
// 1e-8 in no more iterations, and at the scenario's 1e-3 in clearly fewer.
func TestTwoLevelSolveOnNetworkY(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 150-patch wall plan; run without -short")
	}
	b, err := Build("network-y", Params{MaxCells: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := b.Geom.WallPlan(0, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sv := bie.NewWallOperator(c, b.Surf, bie.WithPlan(plan), bie.WithFMM(b.Config.FMM))
		plain := func(tol float64) ([]float64, la.GMRESResult) {
			x := make([]float64, len(b.G))
			res, err := la.GMRES(func(dst, v []float64) { copy(dst, sv.Apply(c, v)) }, b.G, x,
				la.GMRESOptions{Tol: tol, MaxIters: 200, Restart: 200})
			if err != nil {
				t.Fatal(err)
			}
			return x, res
		}
		got, res := bie.Solve(c, sv, b.G, nil, 1e-10, 200)
		want, ref := plain(1e-10)
		if !res.Converged || !ref.Converged {
			t.Fatalf("converged %v (two-level) / %v (plain)", res.Converged, ref.Converged)
		}
		if d := fmm.RelativeError(got, want); d > 1e-8 {
			t.Errorf("two-level density differs from plain GMRES by %.3g", d)
		}
		if res.Iterations > ref.Iterations {
			t.Errorf("at 1e-10: two-level solve took %d iterations, plain GMRES %d", res.Iterations, ref.Iterations)
		}
		_, loose := bie.Solve(c, sv, b.G, nil, 1e-3, 200)
		_, looseRef := plain(1e-3)
		if 3*loose.Iterations > 2*looseRef.Iterations {
			t.Errorf("at 1e-3: two-level solve took %d iterations, plain GMRES %d: want at most two thirds", loose.Iterations, looseRef.Iterations)
		}
		t.Logf("%d / %d iterations at 1e-10, %d / %d at 1e-3 (two-level / plain)",
			res.Iterations, ref.Iterations, loose.Iterations, looseRef.Iterations)
	})
}
