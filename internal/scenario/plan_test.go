package scenario

import (
	"context"
	"io"
	"runtime"
	"testing"

	"rbcflow/internal/bie"
	"rbcflow/internal/forest"
	"rbcflow/internal/patch"
)

// planTestGeom builds a light 6-patch cubed-sphere Geom (the cheap surface
// used by the bie short lane), independent of the heavyweight registry
// scenarios.
func planTestGeom() *Geom {
	mk := func(fix int, sign float64) *patch.Patch {
		return patch.FromFunc(8, func(u, v float64) [3]float64 {
			var p [3]float64
			p[fix] = sign
			p[(fix+1)%3] = u * sign
			p[(fix+2)%3] = v
			n := patch.Norm(p)
			return [3]float64{p[0] / n, p[1] / n, p[2] / n}
		})
	}
	var roots []*patch.Patch
	for fix := 0; fix < 3; fix++ {
		roots = append(roots, mk(fix, 1), mk(fix, -1))
	}
	prm := bie.Params{QuadNodes: 5, NearFactor: 0.8}
	return &Geom{Surf: bie.NewSurface(forest.NewUniform(roots, 0), prm)}
}

// TestGeomWallPlanSharing: a Geom materializes its plan exactly once; later
// callers get the in-memory copy, and a fresh Geom of identical geometry
// hits the disk cache instead of rebuilding.
func TestGeomWallPlanSharing(t *testing.T) {
	dir := t.TempDir()
	g := planTestGeom()
	p1, src1, err := g.WallPlan(2, dir, nil)
	if err != nil || src1 != bie.PlanBuilt {
		t.Fatalf("first call: source %q err %v", src1, err)
	}
	p2, src2, err := g.WallPlan(2, dir, nil)
	if err != nil || src2 != bie.PlanShared || p2 != p1 {
		t.Fatalf("second call: source %q plan-shared=%v err %v", src2, p2 == p1, err)
	}
	g2 := planTestGeom()
	p3, src3, err := g2.WallPlan(2, dir, nil)
	if err != nil || src3 != bie.PlanDisk {
		t.Fatalf("fresh geom: source %q err %v", src3, err)
	}
	if p3.Fingerprint != p1.Fingerprint {
		t.Fatalf("equal geometry produced different fingerprints")
	}
}

// TestAggregatePlanStats: the per-fingerprint counts are assembled from the
// scheduling-dependent per-run sources into a deterministic aggregate.
func TestAggregatePlanStats(t *testing.T) {
	recs := []RunRecord{
		{ID: "a", PlanFingerprint: "fp1", Outcome: &RunOutcome{PlanSource: "memory"}},
		{ID: "b", PlanFingerprint: "fp1", Outcome: &RunOutcome{PlanSource: "built"}},
		{ID: "c", PlanFingerprint: "fp1", Outcome: &RunOutcome{PlanSource: "memory"}},
		{ID: "d", PlanFingerprint: "fp2", Outcome: &RunOutcome{PlanSource: "disk"}},
		{ID: "e"}, // free-space run: no plan
	}
	stats := aggregatePlanStats(recs)
	if len(stats) != 2 {
		t.Fatalf("want 2 stats, got %+v", stats)
	}
	if stats[0].Fingerprint != "fp1" || stats[0].Runs != 3 || stats[0].Source != "built" {
		t.Fatalf("fp1 aggregate wrong: %+v", stats[0])
	}
	if stats[1].Fingerprint != "fp2" || stats[1].Runs != 1 || stats[1].Source != "disk" {
		t.Fatalf("fp2 aggregate wrong: %+v", stats[1])
	}
}

// TestCampaignPlanStats: sweep points sharing geometry build the wall plan
// once ("built", 2 runs), and a second campaign over the same plan cache
// loads it from disk.
func TestCampaignPlanStats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	cache := t.TempDir()
	cfg := &CampaignConfig{
		Scenarios: []string{"torus"},
		Sweep:     map[string][]float64{"max_cells": {2, 4}},
		Steps:     1,
		Workers:   2,
		PlanCache: cache,
	}
	m, err := RunCampaignContext(context.Background(), cfg, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if m.OKCount() != 2 {
		t.Fatalf("runs failed: %+v", m.Runs)
	}
	if len(m.PlanStats) != 1 || m.PlanStats[0].Runs != 2 || m.PlanStats[0].Source != "built" {
		t.Fatalf("cold campaign plan stats: %+v", m.PlanStats)
	}
	for _, r := range m.Runs {
		if r.PlanFingerprint != m.PlanStats[0].Fingerprint {
			t.Fatalf("run %s fingerprint %q does not match stats", r.ID, r.PlanFingerprint)
		}
	}
	if _, err := bie.LoadPlan(bie.PlanPath(cache, m.PlanStats[0].Fingerprint)); err != nil {
		t.Fatalf("plan not cached on disk: %v", err)
	}

	// Fresh output dir, same cache: the plan must come from disk.
	m2, err := RunCampaignContext(context.Background(), cfg, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.PlanStats) != 1 || m2.PlanStats[0].Source != "disk" {
		t.Fatalf("warm campaign plan stats: %+v", m2.PlanStats)
	}
	if m2.PlanStats[0].Fingerprint != m.PlanStats[0].Fingerprint {
		t.Fatalf("fingerprint changed between campaigns")
	}
}

// TestScenarioPlanFingerprintsPinned: the default level-0 torus and
// network-y surfaces hash to the addresses recorded at PR 25's commit, so a
// plan cache directory written before bie.Params lost the check-point knobs
// (none of which the fingerprint ever read) is still served from disk. A
// change that moves these on purpose bumps bie.PlanVersion and re-records.
func TestScenarioPlanFingerprintsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the addresses hash nodal coordinates bit for bit; recorded on amd64 (no fused multiply-add)")
	}
	for name, want := range map[string]string{
		"torus":     "830055933ceb1671a787906371c8c6d456c35dcf07f8f7b011dd66ecefa1b980",
		"network-y": "100ba19c36a47142901278f86c5e43ba07caef703a786c6c2fe153ef8f73e7cf",
	} {
		scn, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var p Params
		p.Defaults()
		g, err := scn.BuildGeometry(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := bie.PlanFingerprint(g.Surf); got != want {
			t.Errorf("%s: plan fingerprint %s, recorded %s — cached plans would be orphaned", name, got, want)
		}
	}
}
