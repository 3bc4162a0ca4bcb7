package scenario

import (
	"context"
	"io"
	"reflect"
	"testing"

	"rbcflow/internal/telemetry"
)

// coreCounters strips the invocation-scoped plan-cache metrics and returns
// the deterministic counter core of a final snapshot.
func coreCounters(s telemetry.Snapshot) map[string]int64 {
	return s.Without("bie.plan.").CounterMap()
}

// TestTelemetryResumeBitIdentical: the deterministic telemetry core —
// counter values, span counts, gauge values — of an interrupted-and-resumed
// run equals an uninterrupted run's exactly, at every rank count. The
// checkpoint carries the cumulative snapshot, the resumed registry restores
// it, and the remaining steps accumulate on top. The walled case (skipped
// under -short) adds the operator's own metrics: the resumed process builds
// its operator — coarse level included — again, and that build must count
// once, as in the uninterrupted run.
func TestTelemetryResumeBitIdentical(t *testing.T) {
	const n, k = 4, 2
	cases := []struct {
		name   string
		params Params
		ranks  int
	}{{"shear", Params{}, 1}, {"shear", Params{}, 2}}
	if !testing.Short() {
		cases = append(cases, struct {
			name   string
			params Params
			ranks  int
		}{"torus", Params{MaxCells: 2}, 1})
	}
	for _, tc := range cases {
		ranks := tc.ranks
		build := func() *Bundle {
			b, err := Build(tc.name, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		refReg := telemetry.NewRegistry()
		if _, err := ExecuteContext(context.Background(), build(), RunOptions{Ranks: ranks, Steps: n, Telemetry: refReg}); err != nil {
			t.Fatal(err)
		}
		ref := refReg.Snapshot()
		if ref.CounterMap()["core.step.count"] != int64(n*ranks) {
			t.Fatalf("ranks=%d: core.step span count %d, want %d (all ranks record)",
				ranks, ref.CounterMap()["core.step.count"], n*ranks)
		}

		dir := t.TempDir()
		firstReg := telemetry.NewRegistry()
		if _, err := ExecuteContext(context.Background(), build(), RunOptions{
			Ranks: ranks, Steps: k, CheckpointEvery: k, OutDir: dir, Telemetry: firstReg,
		}); err != nil {
			t.Fatal(err)
		}
		secondReg := telemetry.NewRegistry()
		out, err := ExecuteContext(context.Background(), build(), RunOptions{
			Ranks: ranks, Steps: n, CheckpointEvery: k, OutDir: dir, Telemetry: secondReg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.ResumedFrom != k {
			t.Fatalf("resumed from %d, want %d", out.ResumedFrom, k)
		}

		got := secondReg.Snapshot()
		if tc.name == "torus" && coreCounters(got)["bie.coarse.build.count"] != 1 {
			t.Fatalf("resumed torus run counts %d coarse-level builds, want 1", coreCounters(got)["bie.coarse.build.count"])
		}
		if !reflect.DeepEqual(coreCounters(ref), coreCounters(got)) {
			t.Fatalf("ranks=%d: resumed counter core diverged:\nref  %v\ngot  %v",
				ranks, coreCounters(ref), coreCounters(got))
		}
		if !reflect.DeepEqual(ref.GaugeMap(), got.GaugeMap()) {
			t.Fatalf("ranks=%d: resumed gauges diverged: %v vs %v",
				ranks, ref.GaugeMap(), got.GaugeMap())
		}
		// The outcome snapshot is the same registry's final state.
		if !reflect.DeepEqual(coreCounters(out.Telemetry), coreCounters(got)) {
			t.Fatalf("RunOutcome.Telemetry differs from the registry snapshot")
		}
	}
}

// TestCheckpointTelemetryRoundTrip: the snapshot field survives the gob
// checkpoint byte-exactly, including float64 bit patterns.
func TestCheckpointTelemetryRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("a.count").Add(7)
	reg.Gauge("g").Set(0.1 + 0.2) // a value with an inexact decimal expansion
	stop := telemetry.Start(reg, "span")
	stop()
	snap := reg.Snapshot()

	dir := t.TempDir()
	path := dir + "/state.ckpt"
	if err := SaveCheckpoint(path, &Checkpoint{Scenario: "x", Telemetry: snap}); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, ck.Telemetry) {
		t.Fatalf("snapshot not bit-identical through gob:\nin  %+v\nout %+v", snap, ck.Telemetry)
	}
	restored := telemetry.NewRegistry()
	restored.Restore(ck.Telemetry)
	if restored.Counter("a.count").Value() != 7 || restored.Gauge("g").Value() != 0.1+0.2 {
		t.Fatalf("restore lost values: %+v", restored.Snapshot())
	}
}

// TestCampaignTelemetryResume: the manifest's per-run telemetry aggregates
// of a campaign that was checkpointed mid-flight and resumed to completion
// are bit-identical to an uninterrupted campaign's.
func TestCampaignTelemetryResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	mk := func(steps int) *CampaignConfig {
		return &CampaignConfig{
			Scenarios:       []string{"shear"},
			Sweep:           map[string][]float64{"max_cells": {2, 4}},
			Steps:           steps,
			Workers:         2,
			CheckpointEvery: 2,
		}
	}
	// Uninterrupted reference.
	refDir := t.TempDir()
	ref, err := RunCampaignContext(context.Background(), mk(4), refDir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Interrupted: stop at the step-2 checkpoint, then resume to 4.
	dir := t.TempDir()
	if _, err := RunCampaignContext(context.Background(), mk(2), dir, io.Discard); err != nil {
		t.Fatal(err)
	}
	res, err := RunCampaignContext(context.Background(), mk(4), dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.OKCount() != 2 {
		t.Fatalf("resumed campaign not ok: %+v", res.Runs)
	}
	byID := func(m *Manifest) map[string]RunRecord {
		out := map[string]RunRecord{}
		for _, r := range m.Runs {
			out[r.ID] = r
		}
		return out
	}
	refRuns, resRuns := byID(ref), byID(res)
	for id, rr := range refRuns {
		got, ok := resRuns[id]
		if !ok {
			t.Fatalf("run %s missing from resumed manifest", id)
		}
		if got.ResumedFrom != 2 {
			t.Errorf("%s: resumed from %d, want 2", id, got.ResumedFrom)
		}
		if len(rr.Telemetry) == 0 {
			t.Fatalf("%s: reference run recorded no telemetry", id)
		}
		if !reflect.DeepEqual(rr.Telemetry, got.Telemetry) {
			t.Errorf("%s: telemetry counters diverged across resume:\nref %v\ngot %v",
				id, rr.Telemetry, got.Telemetry)
		}
		if !reflect.DeepEqual(rr.TelemetryGauges, got.TelemetryGauges) {
			t.Errorf("%s: telemetry gauges diverged across resume: %v vs %v",
				id, rr.TelemetryGauges, got.TelemetryGauges)
		}
	}
	if ref.TelemetryTotals["core.step.count"] != res.TelemetryTotals["core.step.count"] {
		t.Errorf("campaign step-span totals diverged: %d vs %d",
			ref.TelemetryTotals["core.step.count"], res.TelemetryTotals["core.step.count"])
	}
}
