package bie

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"rbcflow/internal/par"
	"rbcflow/internal/telemetry"
)

// lightParams is the fast discretization used by the short-lane tests.
func lightParams() Params {
	return Params{QuadNodes: 5, NearFactor: 0.8}
}

func planSphere() *Surface {
	return NewSurface(cubeSphere(8, 1, 0), lightParams())
}

// samePlan compares two plans for bitwise equality of every block.
func samePlan(t *testing.T, a, b *QuadPlan, label string) {
	t.Helper()
	if a.NumNodes != b.NumNodes {
		t.Fatalf("%s: node counts %d vs %d", label, a.NumNodes, b.NumNodes)
	}
	for g := 0; g < a.NumNodes; g++ {
		ba, bb := a.Corr[g], b.Corr[g]
		if len(ba) != len(bb) {
			t.Fatalf("%s: node %d has %d vs %d blocks", label, g, len(ba), len(bb))
		}
		for i := range ba {
			if ba[i].Pid != bb[i].Pid {
				t.Fatalf("%s: node %d block %d pid %d vs %d", label, g, i, ba[i].Pid, bb[i].Pid)
			}
			for k := range ba[i].M {
				// Bitwise: identical floats, not merely close ones.
				if math.Float64bits(ba[i].M[k]) != math.Float64bits(bb[i].M[k]) {
					t.Fatalf("%s: node %d block %d entry %d: %x vs %x",
						label, g, i, k, ba[i].M[k], bb[i].M[k])
				}
			}
		}
	}
}

// TestPlanDeterministicAcrossWorkers: the worker pool only partitions the
// node set, so the plan must be bit-identical for every worker count.
func TestPlanDeterministicAcrossWorkers(t *testing.T) {
	s := planSphere()
	p1 := BuildQuadPlan(s, 1)
	for _, w := range []int{2, 3, 7} {
		pw := BuildQuadPlan(s, w)
		samePlan(t, p1, pw, "1-vs-N-workers")
		if pw.Fingerprint != p1.Fingerprint {
			t.Fatalf("fingerprint differs across worker counts")
		}
	}
}

// TestPlanRoundTripBitIdenticalSolve: a plan that went through the plan file
// is the built plan bit for bit, and drives a GMRES solve with the same
// iterates and residual history as the sequential rank-local solver.
func TestPlanRoundTripBitIdenticalSolve(t *testing.T) {
	s := planSphere()
	an := newAnalyticStokes(1)
	rhs := make([]float64, s.NumUnknowns())
	for k := range s.Pts {
		g := an.At(s.Pts[k])
		copy(rhs[3*k:3*k+3], g[:])
	}

	solveWith := func(opts ...Option) ([]float64, []float64) {
		var phi, hist []float64
		par.Run(1, par.SKX(), func(c *par.Comm) {
			opts = append(opts, WithFMM(FMMConfig{DirectBelow: 1 << 40}))
			sv := NewWallOperator(c, s, opts...)
			x, res := Solve(c, sv, rhs, nil, 1e-7, 40)
			phi, hist = x, res.History
		})
		return phi, hist
	}

	// Reference: the sequential rank-local precompute (no plan supplied).
	phiSeq, histSeq := solveWith()

	// A parallel-built plan, round-tripped through disk.
	dir := t.TempDir()
	plan := BuildQuadPlan(s, 3)
	path := filepath.Join(dir, "plan.qplan")
	if err := SavePlan(path, plan); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := LoadPlan(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := loaded.Compatible(s); err != nil {
		t.Fatalf("round-tripped plan incompatible: %v", err)
	}
	samePlan(t, plan, loaded, "built-vs-loaded")
	if loaded.Version != plan.Version || loaded.QuadNodes != plan.QuadNodes || loaded.Fingerprint != plan.Fingerprint {
		t.Fatalf("header changed in the round trip: %+v", loaded)
	}
	phiPlan, histPlan := solveWith(WithPlan(loaded))

	if len(histSeq) == 0 || len(histSeq) != len(histPlan) {
		t.Fatalf("history lengths %d vs %d", len(histSeq), len(histPlan))
	}
	for i := range histSeq {
		if math.Float64bits(histSeq[i]) != math.Float64bits(histPlan[i]) {
			t.Fatalf("residual history diverges at iteration %d: %x vs %x",
				i, histSeq[i], histPlan[i])
		}
	}
	for i := range phiSeq {
		if math.Float64bits(phiSeq[i]) != math.Float64bits(phiPlan[i]) {
			t.Fatalf("solution diverges at entry %d", i)
		}
	}
}

// TestFullPlanMatchesRankLocalAcrossRanks: consuming a shared full-surface
// plan is operator-identical to the per-rank precompute, on 1 and 2 ranks.
func TestFullPlanMatchesRankLocalAcrossRanks(t *testing.T) {
	s := planSphere()
	plan := BuildQuadPlan(s, 2)
	phi := make([]float64, s.NumUnknowns())
	for k, p := range s.Pts {
		phi[3*k] = p[0] * p[1]
		phi[3*k+1] = math.Sin(p[2])
		phi[3*k+2] = p[0] - 0.5*p[1]
	}
	for _, np := range []int{1, 2} {
		outs := make([][]float64, 2)
		for vi, opts := range [][]Option{
			{WithFMM(FMMConfig{DirectBelow: 1 << 40})},
			{WithFMM(FMMConfig{DirectBelow: 1 << 40}), WithPlan(plan)},
		} {
			var gathered []float64
			par.Run(np, par.SKX(), func(c *par.Comm) {
				sv := NewWallOperator(c, s, opts...)
				u := sv.Apply(c, phi[3*sv.nodeLo:3*sv.nodeHi])
				all, _ := par.AllgathervFlat(c, u)
				if c.Rank() == 0 {
					gathered = all
				}
			})
			outs[vi] = gathered
		}
		for i := range outs[0] {
			if math.Float64bits(outs[0][i]) != math.Float64bits(outs[1][i]) {
				t.Fatalf("np=%d: plan-backed Apply differs at entry %d", np, i)
			}
		}
	}
}

// TestPlanFingerprint: equal content hashes equal; any input the blocks
// depend on (near-zone width, nodal geometry) changes the address.
func TestPlanFingerprint(t *testing.T) {
	a := planSphere()
	b := planSphere()
	if PlanFingerprint(a) != PlanFingerprint(b) {
		t.Fatalf("identical surfaces hash differently")
	}
	prm := lightParams()
	prm.NearFactor = 0.9
	c := NewSurface(cubeSphere(8, 1, 0), prm)
	if PlanFingerprint(a) == PlanFingerprint(c) {
		t.Fatalf("NearFactor change did not change the fingerprint")
	}
	d := NewSurface(cubeSphere(8, 1.0000001, 0), lightParams())
	if PlanFingerprint(a) == PlanFingerprint(d) {
		t.Fatalf("geometry perturbation did not change the fingerprint")
	}
}

// TestPlanForDiskCache: cold build stores, warm call loads; corrupt entries
// are rebuilt; partial plans refuse to serialize. Every outcome is counted
// in the registry, so none of the cache's failure modes stays silent.
func TestPlanForDiskCache(t *testing.T) {
	s := planSphere()
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	counts := func(want map[string]int64) {
		t.Helper()
		for name, v := range want {
			if got := reg.Counter("bie.plan.cache." + name).Value(); got != v {
				t.Fatalf("counter bie.plan.cache.%s = %d, want %d", name, got, v)
			}
		}
	}
	p1, src1, err := PlanFor(s, 2, dir, reg)
	if err != nil || src1 != PlanBuilt {
		t.Fatalf("cold: source %q err %v", src1, err)
	}
	counts(map[string]int64{"miss": 1, "hit": 0, "corrupt": 0, "store_error": 0})
	p2, src2, err := PlanFor(s, 2, dir, reg)
	if err != nil || src2 != PlanDisk {
		t.Fatalf("warm: source %q err %v", src2, err)
	}
	counts(map[string]int64{"miss": 1, "hit": 1, "corrupt": 0, "store_error": 0})
	samePlan(t, p1, p2, "cold-vs-warm")

	// Corrupt the entry: the next request must rebuild, not trust it.
	path := PlanPath(dir, PlanFingerprint(s))
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	p3, src3, err := PlanFor(s, 2, dir, reg)
	if err != nil || src3 != PlanBuilt {
		t.Fatalf("corrupt entry: source %q err %v", src3, err)
	}
	counts(map[string]int64{"miss": 1, "hit": 1, "corrupt": 1, "store_error": 0})
	samePlan(t, p1, p3, "rebuilt-after-corruption")

	partial := buildPartialPlan(s, 0, s.NQ, 1)
	if err := SavePlan(filepath.Join(dir, "partial.qplan"), partial); err == nil {
		t.Fatalf("saving a partial plan must fail")
	}

	// An unwritable cache degrades to an uncached build: the plan must
	// still come back usable (a store failure must never fail the run or
	// poison a shared geometry's plan entry).
	blocked := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	p4, src4, err := PlanFor(s, 2, filepath.Join(blocked, "cache"), reg)
	if err != nil || src4 != PlanBuilt || p4 == nil {
		t.Fatalf("unwritable cache: plan %v source %q err %v", p4 != nil, src4, err)
	}
	// The load under a blocked path errors with ENOTDIR (unreadable, not
	// absent), so it counts as a second corrupt entry; the failed store is
	// what the store_error counter pins.
	counts(map[string]int64{"miss": 1, "hit": 1, "corrupt": 2, "store_error": 1})
	samePlan(t, p1, p4, "unwritable-cache-build")

	// The build span counted every non-hit materialization; a nil registry
	// is a supported no-op.
	if n := reg.Snapshot().CounterMap()["bie.plan.build.count"]; n != 3 {
		t.Fatalf("bie.plan.build span count = %d, want 3", n)
	}
	if _, _, err := PlanFor(s, 2, dir, nil); err != nil {
		t.Fatalf("nil registry: %v", err)
	}
}

// TestPlanCompatibleRejects: a plan built for one surface cannot drive
// another, and NewWallOperator refuses it loudly.
func TestPlanCompatibleRejects(t *testing.T) {
	s := planSphere()
	other := NewSurface(cubeSphere(8, 1.5, 0), lightParams())
	plan := BuildQuadPlan(other, 1)
	if err := plan.Compatible(s); err == nil {
		t.Fatalf("foreign plan reported compatible")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("NewWallOperator accepted an incompatible plan")
		}
	}()
	par.Run(1, par.SKX(), func(c *par.Comm) {
		NewWallOperator(c, s, WithPlan(plan))
	})
}

// passthroughNear exercises the NearField plug point: a wrapper over a plan
// must be operator-identical to the plan itself.
type passthroughNear struct{ p *QuadPlan }

func (n passthroughNear) Name() string             { return "passthrough" }
func (n passthroughNear) Blocks(g int) []CorrBlock { return n.p.Blocks(g) }

// TestPluggableBackends: swapping the far field for the explicit direct
// backend and the near field for a custom implementation reproduces the
// default operator bit for bit (the default FMM config here routes
// everything direct, so the backends compute the same sums).
func TestPluggableBackends(t *testing.T) {
	s := planSphere()
	plan := BuildQuadPlan(s, 1)
	phi := make([]float64, s.NumUnknowns())
	for k, p := range s.Pts {
		phi[3*k] = p[0]
		phi[3*k+1] = p[1] * p[2]
		phi[3*k+2] = math.Cos(p[0])
	}
	var ref, alt []float64
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sv := NewWallOperator(c, s, WithFMM(FMMConfig{DirectBelow: 1 << 40}), WithPlan(plan))
		ref = sv.Apply(c, phi)
	})
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sv := NewWallOperator(c, s,
			WithFarField(DirectFarField()),
			WithNearField(passthroughNear{plan}))
		if sv.Plan() != nil {
			t.Errorf("custom near field should not report a plan")
		}
		alt = sv.Apply(c, phi)
	})
	for i := range ref {
		if math.Float64bits(ref[i]) != math.Float64bits(alt[i]) {
			t.Fatalf("backend swap changed the operator at entry %d", i)
		}
	}
}
