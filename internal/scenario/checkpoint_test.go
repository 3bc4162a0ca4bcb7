package scenario

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rbcflow/internal/par"
	"rbcflow/internal/rbc"
	"rbcflow/internal/telemetry"
)

func TestCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	b, err := Build("shear", Params{})
	if err != nil {
		t.Fatal(err)
	}
	ck := &Checkpoint{
		Scenario:  "shear",
		ParamsSig: b.Params.Signature(),
		Step:      7,
		Cells:     StateFromCells(b.Cells),
		Phi:       []float64{1.5, -2.25, 3.125},
		V0:        1.25,
		Ledger: par.Ledger{
			VirtualTime: 1.5,
			TimeByLabel: map[string]float64{"COL": 0.5, "Other": 1.0},
			CommBytes:   128,
			Phases:      3,
		},
	}
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 7 || got.V0 != 1.25 || got.Scenario != "shear" {
		t.Fatalf("scalar fields lost: %+v", got)
	}
	if got.Ledger.TimeByLabel["COL"] != 0.5 {
		t.Fatalf("ledger lost: %+v", got.Ledger)
	}
	cells, err := CellsFromState(got.Cells, b.Config.SphOrder)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(b.Cells) {
		t.Fatalf("cells %d want %d", len(cells), len(b.Cells))
	}
	for i := range cells {
		for d := 0; d < 3; d++ {
			for k := range cells[i].X[d] {
				if cells[i].X[d][k] != b.Cells[i].X[d][k] {
					t.Fatalf("cell %d coord not bit-identical", i)
				}
			}
		}
	}

	// Version mismatch must be rejected, not mis-decoded.
	bad := *got
	bad.Version = CheckpointVersion + 99
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(&bad); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("version mismatch accepted")
	}
}

// TestCheckpointResumeBitIdentical is the round-trip contract of ISSUE 2:
// run k steps, checkpoint, restore, continue to n — centroids must be
// bit-identical to an uninterrupted n-step run. The free-space variant runs
// everywhere; the vessel variant (exercising the GMRES warm-start path) is
// skipped under -short.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name   string
		params Params
		ranks  int
		short  bool
	}{
		{name: "shear", params: Params{}, ranks: 1, short: true},
		{name: "shear", params: Params{}, ranks: 2, short: true},
		{name: "torus", params: Params{MaxCells: 2}, ranks: 1, short: false},
	}
	const n, k = 4, 2
	for _, tc := range cases {
		if !tc.short && testing.Short() {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Bundle {
				b, err := Build(tc.name, tc.params)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			// Reference: uninterrupted n steps, fully in memory.
			ref, err := ExecuteContext(context.Background(), build(), RunOptions{Ranks: tc.ranks, Steps: n})
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted: k steps with a checkpoint, then a fresh ExecuteContext
			// (fresh bundle, as after a process restart) resumes to n.
			dir := t.TempDir()
			first, err := ExecuteContext(context.Background(), build(), RunOptions{
				Ranks: tc.ranks, Steps: k, CheckpointEvery: k, OutDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			if first.ResumedFrom != -1 {
				t.Fatalf("first run should be fresh, resumed from %d", first.ResumedFrom)
			}
			second, err := ExecuteContext(context.Background(), build(), RunOptions{
				Ranks: tc.ranks, Steps: n, CheckpointEvery: k, OutDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			if second.ResumedFrom != k {
				t.Fatalf("second run resumed from %d, want %d", second.ResumedFrom, k)
			}

			if len(ref.Centroids) != len(second.Centroids) {
				t.Fatalf("cell counts differ: %d vs %d", len(ref.Centroids), len(second.Centroids))
			}
			for i := range ref.Centroids {
				for d := 0; d < 3; d++ {
					if ref.Centroids[i][d] != second.Centroids[i][d] {
						t.Fatalf("cell %d dim %d: %.17g != %.17g (not bit-identical)",
							i, d, ref.Centroids[i][d], second.Centroids[i][d])
					}
				}
			}

			// The resumed run's observables continue the same series.
			if len(second.Rows) != n-k || second.Rows[0].Step != k+1 {
				t.Fatalf("resumed rows wrong: %+v", second.Rows)
			}
		})
	}
}

// checkpointWithRNG is the snapshot layout of checkpoint version 1 as first
// written: today's fields plus the per-step stream state RNG, which nothing
// read.
type checkpointWithRNG struct {
	Version   int
	Scenario  string
	ParamsSig string
	Step      int
	Cells     []CellState
	Phi       []float64
	V0        float64
	RNG       uint64
	Ledger    par.Ledger
	Telemetry telemetry.Snapshot
}

// A version-1 checkpoint that still carries the RNG field resumes bit for
// bit: gob skips the field the current layout lacks, so CheckpointVersion
// stays 1 and old checkpoints stay resumable.
func TestCheckpointWithRNGFieldResumes(t *testing.T) {
	const n, k = 4, 2
	build := func() *Bundle {
		b, err := Build("shear", Params{})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref, err := ExecuteContext(context.Background(), build(), RunOptions{Ranks: 1, Steps: n})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := ExecuteContext(context.Background(), build(), RunOptions{
		Ranks: 1, Steps: k, CheckpointEvery: k, OutDir: dir,
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "state.ckpt")
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&checkpointWithRNG{
		Version: ck.Version, Scenario: ck.Scenario, ParamsSig: ck.ParamsSig, Step: ck.Step,
		Cells: ck.Cells, Phi: ck.Phi, V0: ck.V0, RNG: 0x9e3779b97f4a7c15,
		Ledger: ck.Ledger, Telemetry: ck.Telemetry,
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := ExecuteContext(context.Background(), build(), RunOptions{
		Ranks: 1, Steps: n, CheckpointEvery: k, OutDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ResumedFrom != k {
		t.Fatalf("resumed from %d, want %d", resumed.ResumedFrom, k)
	}
	if !reflect.DeepEqual(ref.Centroids, resumed.Centroids) {
		t.Fatalf("centroids differ from the uninterrupted run:\n%v\n%v", ref.Centroids, resumed.Centroids)
	}
	if !reflect.DeepEqual(ref.Rows[k:], resumed.Rows) {
		t.Fatalf("observable rows differ from the uninterrupted run:\n%+v\n%+v", ref.Rows[k:], resumed.Rows)
	}
}

// A checkpoint from one configuration must not silently seed another.
func TestCheckpointConfigMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	b, err := Build("shear", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteContext(context.Background(), b, RunOptions{Steps: 1, OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	other, err := Build("shear", Params{SphOrder: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteContext(context.Background(), other, RunOptions{Steps: 2, OutDir: dir}); err == nil {
		t.Fatal("resume with different params accepted")
	}
}

// Executing must not advance the caller's bundle: at one rank core.New used
// to keep a sub-slice of Bundle.Cells and Step stored the committed cells
// into it, so a second ExecuteContext of the same bundle started from the first
// run's final state.
func TestExecuteLeavesBundleCellsAlone(t *testing.T) {
	b, err := Build("shear", Params{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := ExecuteContext(context.Background(), b, RunOptions{Ranks: 1, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if first.Steps != 2 || len(first.Centroids) != 2 || first.Ledger.VirtualTime <= 0 {
		t.Fatalf("unexpected outcome: %+v", first)
	}
	second, err := ExecuteContext(context.Background(), b, RunOptions{Ranks: 1, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Fatalf("second run of one bundle differs from the first:\n%+v\n%+v", first.Rows, second.Rows)
	}
}

// A checkpoint that still decodes but was edited or truncated must be
// refused with an error naming the file — not resumed from zero-padded
// cells, sized from the file's own order, started before step 0, left to
// divide by a non-finite reference volume, or left to panic mid-step.
func TestCheckpointResumeRejectsCorruptState(t *testing.T) {
	build := func() *Bundle {
		b, err := Build("shear", Params{})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	src := filepath.Join(t.TempDir(), "run")
	if _, err := ExecuteContext(context.Background(), build(), RunOptions{
		Ranks: 1, Steps: 1, CheckpointEvery: 1, OutDir: src,
	}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		corrupt func(ck *Checkpoint)
		ok      bool
	}{
		{name: "intact", corrupt: func(*Checkpoint) {}, ok: true},
		{name: "order", corrupt: func(ck *Checkpoint) { ck.Cells[0].P++ }},
		{name: "short-grid", corrupt: func(ck *Checkpoint) {
			ck.Cells[1].X[2] = ck.Cells[1].X[2][:len(ck.Cells[1].X[2])/2]
		}},
		{name: "long-grid", corrupt: func(ck *Checkpoint) {
			ck.Cells[0].X[0] = append(ck.Cells[0].X[0], 0)
		}},
		{name: "cell-count", corrupt: func(ck *Checkpoint) { ck.Cells = ck.Cells[:1] }},
		{name: "density", corrupt: func(ck *Checkpoint) { ck.Phi = make([]float64, 7) }},
		{name: "nan", corrupt: func(ck *Checkpoint) { ck.Cells[1].X[0][3] = math.NaN() }},
		{name: "inf", corrupt: func(ck *Checkpoint) { ck.Cells[0].X[2][0] = math.Inf(-1) }},
		{name: "negative-step", corrupt: func(ck *Checkpoint) { ck.Step = -3 }},
		{name: "volume-nan", corrupt: func(ck *Checkpoint) { ck.V0 = math.NaN() }},
		{name: "volume-zero", corrupt: func(ck *Checkpoint) { ck.V0 = 0 }},
		{name: "ledger", corrupt: func(ck *Checkpoint) { ck.Ledger.VirtualTime = math.Inf(1) }},
		{name: "ledger-label", corrupt: func(ck *Checkpoint) {
			ck.Ledger.TimeByLabel = map[string]float64{"COL": math.NaN()}
		}},
		{name: "span-edges", corrupt: func(ck *Checkpoint) {
			ck.Telemetry.Spans = []telemetry.SpanValue{{Name: "core.step", Count: 1, Edges: []float64{2, 1}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck, err := LoadCheckpoint(filepath.Join(src, "state.ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(ck)
			dir := t.TempDir()
			path := filepath.Join(dir, "state.ckpt")
			if err := SaveCheckpoint(path, ck); err != nil {
				t.Fatal(err)
			}
			out, err := ExecuteContext(context.Background(), build(), RunOptions{Ranks: 1, Steps: 2, OutDir: dir})
			if tc.ok {
				if err != nil || out.ResumedFrom != 1 {
					t.Fatalf("intact checkpoint: err %v, outcome %+v", err, out)
				}
				return
			}
			if err == nil {
				t.Fatalf("corrupt checkpoint resumed (from step %d)", out.ResumedFrom)
			}
			if !strings.Contains(err.Error(), path) || !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("error does not name %s or wrap ErrCheckpoint: %v", path, err)
			}
		})
	}
}

// FuzzLoadCheckpoint: any bytes read as a shear run's checkpoint are refused
// by the decoder or the resume checks with an error wrapping ErrCheckpoint,
// or restore cells of the run's order and grid with finite coordinates —
// never a panic. Seeded with a real shear checkpoint and its halves.
func FuzzLoadCheckpoint(f *testing.F) {
	b, err := Build("shear", Params{})
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	if _, err := ExecuteContext(context.Background(), b, RunOptions{
		Ranks: 1, Steps: 1, CheckpointEvery: 1, OutDir: dir,
	}); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "state.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[len(data)/2:])
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := readCheckpoint(bytes.NewReader(data), "fuzz")
		if err == nil {
			var cells []*rbc.Cell
			if cells, err = ck.resumeCells(b); err == nil && len(cells) != len(b.Cells) {
				t.Fatalf("resumed %d cells, the run has %d", len(cells), len(b.Cells))
			}
		}
		if err != nil && !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("error outside ErrCheckpoint: %v", err)
		}
	})
}
