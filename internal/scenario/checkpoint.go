package scenario

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"rbcflow/internal/par"
	"rbcflow/internal/rbc"
	"rbcflow/internal/telemetry"
)

// CheckpointVersion is bumped whenever the snapshot layout changes; Load
// rejects mismatches instead of mis-decoding.
const CheckpointVersion = 1

// RNG is a splitmix64 generator with fully exportable state: one uint64.
// Campaign runs draw from it once per completed step, so a resumed run
// continues the identical stream — any stochastic scenario extension (e.g.
// recycling jitter) stays bit-reproducible across restarts.
type RNG struct {
	State uint64
}

// NewRNG seeds the stream (seed 0 is remapped to a fixed constant so the
// zero value still produces a usable generator).
func NewRNG(seed int64) *RNG {
	s := uint64(seed)
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return &RNG{State: s}
}

// Uint64 advances the splitmix64 stream.
func (r *RNG) Uint64() uint64 {
	r.State += 0x9e3779b97f4a7c15
	z := r.State
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// CellState is one cell's checkpointed state: the grid (and all derived
// geometry) is deterministic in the spherical-harmonic order, so positions
// are the complete state.
type CellState struct {
	P int
	X [3][]float64
}

// Checkpoint is a versioned gob snapshot of a run. Restoring Cells + Phi
// into a fresh core.Simulation continues the trajectory bit-identically
// (gob round-trips float64 bits exactly).
type Checkpoint struct {
	Version  int
	Scenario string
	// ParamsSig guards against resuming with a different configuration.
	ParamsSig string
	Step      int
	Cells     []CellState
	// Phi is the globally-ordered boundary-density warm start (nil for
	// free-space scenarios).
	Phi []float64
	// V0 is the initial total cell volume, the reference for the volume
	// error observable.
	V0 float64
	// RNG is the campaign stream state at Step.
	RNG uint64
	// Ledger is the accumulated virtual-time accounting at Step.
	Ledger par.Ledger
	// Telemetry is the run's cumulative metrics snapshot at Step, already
	// stripped of invocation-scoped metrics (the "bie.plan." prefix, which
	// depends on the cache state each process finds). Restoring it into the
	// resumed run's registry makes the deterministic core — counters, gauges,
	// span counts — accumulate exactly as an uninterrupted run's. Zero when
	// the run carried no registry (gob tolerates the field's absence in old
	// snapshots the same way).
	Telemetry telemetry.Snapshot
}

// CellsFromState restores cells from a snapshot, every one at the given
// spherical-harmonic order. The states come from a file: a cell of another
// order, a grid of the wrong length, or a non-finite coordinate is an error
// rather than a zero-padded cell or one sized from the file.
func CellsFromState(states []CellState, order int) ([]*rbc.Cell, error) {
	out := make([]*rbc.Cell, len(states))
	for i, cs := range states {
		if cs.P != order {
			return nil, fmt.Errorf("cell %d has order %d, want %d", i, cs.P, order)
		}
		cell := rbc.NewCell(order)
		for d := 0; d < 3; d++ {
			if len(cs.X[d]) != len(cell.X[d]) {
				return nil, fmt.Errorf("cell %d coordinate %d has %d points, want %d",
					i, d, len(cs.X[d]), len(cell.X[d]))
			}
			for _, x := range cs.X[d] {
				if !finite(x) {
					return nil, fmt.Errorf("cell %d has a non-finite coordinate", i)
				}
			}
			copy(cell.X[d], cs.X[d])
		}
		out[i] = cell
	}
	return out, nil
}

// StateFromCells snapshots live cells.
func StateFromCells(cells []*rbc.Cell) []CellState {
	out := make([]CellState, len(cells))
	for i, cell := range cells {
		cs := CellState{P: cell.P}
		for d := 0; d < 3; d++ {
			cs.X[d] = append([]float64(nil), cell.X[d]...)
		}
		out[i] = cs
	}
	return out
}

// SaveCheckpoint writes the snapshot atomically (temp file + rename), so an
// interrupt mid-write never corrupts the previous checkpoint.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	ck.Version = CheckpointVersion
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(ck); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("scenario: encode checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ErrCheckpoint is wrapped by every error that refuses a checkpoint file's
// contents: LoadCheckpoint's for bytes that do not decode as a snapshot of
// the current version, and the resume checks' for a snapshot that does not
// describe the run it would continue. Errors opening the file are not: a
// missing checkpoint is a fresh run.
var ErrCheckpoint = errors.New("not a checkpoint this run can resume")

// LoadCheckpoint reads and version-checks a snapshot.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readCheckpoint(f, path)
}

// readCheckpoint decodes and version-checks the snapshot in r, named path in
// its errors.
func readCheckpoint(r io.Reader, path string) (*Checkpoint, error) {
	ck := &Checkpoint{}
	if err := gob.NewDecoder(r).Decode(ck); err != nil {
		return nil, fmt.Errorf("scenario: decode checkpoint %s: %w (%w)", path, ErrCheckpoint, err)
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("scenario: checkpoint %s has version %d, want %d: %w",
			path, ck.Version, CheckpointVersion, ErrCheckpoint)
	}
	return ck, nil
}

// resumeCells checks the snapshot against the bundle it is to continue —
// the file is outside input, so it must describe this bundle's scenario,
// parameters, cells and wall, at a step a run can reach, with finite state,
// before anything is sized or started from it — and restores the cells.
func (ck *Checkpoint) resumeCells(b *Bundle) ([]*rbc.Cell, error) {
	if ck.Scenario != b.Scenario || ck.ParamsSig != b.Params.Signature() {
		return nil, fmt.Errorf("belongs to %s[%s], refusing to resume %s[%s]: %w",
			ck.Scenario, ck.ParamsSig, b.Scenario, b.Params.Signature(), ErrCheckpoint)
	}
	if ck.Step < 0 {
		return nil, fmt.Errorf("is at step %d: %w", ck.Step, ErrCheckpoint)
	}
	if len(ck.Cells) != len(b.Cells) {
		return nil, fmt.Errorf("has %d cells, %s has %d: %w", len(ck.Cells), b.Scenario, len(b.Cells), ErrCheckpoint)
	}
	cells, err := CellsFromState(ck.Cells, b.Config.SphOrder)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrCheckpoint)
	}
	// The reference volume is the cells' total at step 0: positive when
	// there are cells, and what the volume-drift monitor divides by.
	if !finite(ck.V0) || ck.V0 < 0 || ck.V0 == 0 && len(cells) > 0 {
		return nil, fmt.Errorf("has reference cell volume %g: %w", ck.V0, ErrCheckpoint)
	}
	unknowns := 0
	if b.Surf != nil {
		unknowns = b.Surf.NumUnknowns()
	}
	if n := len(ck.Phi); n != 0 && n != unknowns {
		return nil, fmt.Errorf("wall density has %d values, want 0 or %d: %w", n, unknowns, ErrCheckpoint)
	}
	for _, v := range ck.Phi {
		if !finite(v) {
			return nil, fmt.Errorf("wall density has a non-finite value: %w", ErrCheckpoint)
		}
	}
	if !finite(ck.Ledger.VirtualTime) {
		return nil, fmt.Errorf("ledger has virtual time %g: %w", ck.Ledger.VirtualTime, ErrCheckpoint)
	}
	for label, v := range ck.Ledger.TimeByLabel {
		if !finite(v) {
			return nil, fmt.Errorf("ledger has %g s for %q: %w", v, label, ErrCheckpoint)
		}
	}
	for _, sv := range ck.Telemetry.Spans {
		for i, e := range sv.Edges {
			if !finite(e) || i > 0 && e <= sv.Edges[i-1] {
				return nil, fmt.Errorf("span %q has bucket edges that do not increase: %w", sv.Name, ErrCheckpoint)
			}
		}
	}
	return cells, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
