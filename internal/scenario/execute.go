package scenario

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"rbcflow/internal/bie"
	"rbcflow/internal/core"
	"rbcflow/internal/par"
	"rbcflow/internal/rbc"
	"rbcflow/internal/telemetry"
	"rbcflow/internal/trace"
)

// RunOptions configures one checkpointed execution of a scenario bundle.
type RunOptions struct {
	Ranks   int
	Machine par.Machine

	// Steps is the target step count. Resuming a run whose checkpoint is
	// already at or past Steps is a no-op.
	Steps int

	// CheckpointEvery saves a snapshot every k steps (0 = only at the end).
	// The run executes as a sequence of par.Run segments, one per
	// checkpoint interval; state is gathered, snapshotted, and rethreaded
	// between segments, which is bit-identical to an uninterrupted run.
	CheckpointEvery int

	// OutputEvery writes a cells VTK snapshot whenever a checkpoint
	// boundary crosses a multiple of this step count (0 = final only).
	OutputEvery int

	// OutDir receives ckpt/VTK/CSV files; empty runs fully in memory.
	OutDir string

	// NoResume ignores an existing checkpoint and restarts from step 0.
	NoResume bool

	// PlanCache is the content-addressed wall-plan disk cache directory
	// ("" = in-memory sharing only). Plans are keyed by a geometry+params
	// fingerprint, so equal geometry reuses one plan across sweep points,
	// campaign invocations, and checkpoint resumes.
	PlanCache string

	// Telemetry, when non-nil, collects the run's metrics: the registry is
	// threaded into every layer (operator, FMM, collision, step phases and
	// plan cache), restored from the checkpoint's snapshot on resume, written
	// to telemetry.csv at every checkpoint boundary, and returned in
	// RunOutcome.Telemetry. Nil runs with telemetry fully off.
	Telemetry *telemetry.Registry

	// Health, when non-nil, attaches the numerical-health monitor to every
	// layer of the run. A fatal trip halts the run at the step boundary
	// (collectively, across all ranks), writes a flight-recorder bundle
	// under OutDir/postmortem, and ExecuteContext returns a *HealthError
	// carrying the verdicts and bundle path. The partial segment is NOT
	// checkpointed: the surviving checkpoint is the last healthy one.
	Health *trace.Health

	// TraceLabel names this run's timelines in the execution trace
	// ("<label>/rankN"); empty defaults to the scenario name. Campaign
	// workers set it to the run ID so sweep points separate in Perfetto.
	TraceLabel string

	// InjectNaNStep, when > 0, poisons one coordinate of the first
	// rank-local cell with NaN at the top of that 1-based step — the
	// fault-injection hook of the flight-recorder smoke tests. It is
	// deliberately NOT a scenario Param: it must not perturb the params
	// signature (or checkpoints/goldens keyed by it).
	InjectNaNStep int

	// OnRow, when non-nil, receives every observable row as it is produced
	// (rank 0, inside the stepping world) — the streaming seam of the serve
	// daemon. It must be fast and must not call back into the run; a slow
	// consumer should buffer and drop rather than block the step loop.
	OnRow func(row ObsRow)
}

func (o *RunOptions) defaults() {
	if o.Ranks == 0 {
		o.Ranks = 1
	}
	if o.Machine.Name == "" {
		o.Machine = par.SKX()
	}
}

// RunOutcome summarizes one execution.
type RunOutcome struct {
	Scenario    string
	Steps       int // steps completed in total (including resumed ones)
	ResumedFrom int // checkpoint step this run resumed at; -1 for fresh
	Centroids   [][3]float64
	Rows        []ObsRow // observable rows produced by THIS invocation
	LastStats   core.StepStats
	Ledger      par.Ledger
	Outputs     []string // files written (checkpoint, VTK, CSV)
	// VolFraction is the run's step-0 cell volume over the vessel volume
	// (0 in free space).
	VolFraction float64
	// PlanFingerprint/PlanSource record the wall-operator plan this run
	// consumed and how it was obtained ("built", "disk", "memory"); empty
	// when the run needed no plan (free space, nothing to step).
	PlanFingerprint string
	PlanSource      string
	// Telemetry is the final cumulative registry snapshot (zero when the run
	// carried no registry). Its counter/gauge/span-count core is
	// deterministic for a fixed rank count, except under the "bie.plan."
	// prefix, whose counters depend on the cache state this process found.
	Telemetry telemetry.Snapshot
}

func totalVolume(cells []*rbc.Cell) float64 {
	var v float64
	for _, c := range cells {
		v += c.Volume()
	}
	return v
}

// CancelledError reports a run stopped by context cancellation (per-run
// timeout, client disconnect, server drain). The run's state is consistent
// at Step: every step up to it committed collectively, and NOTHING of the
// cancelled segment was written (no checkpoint, no CSV rows) — the surviving
// checkpoint is the last completed segment's. Unwrap yields the context
// cause (context.Canceled or context.DeadlineExceeded), so errors.Is
// classifies timeouts vs disconnects.
type CancelledError struct {
	Scenario string
	Step     int
	Cause    error
}

func (e *CancelledError) Error() string {
	return fmt.Sprintf("scenario %s: run cancelled at step %d: %v", e.Scenario, e.Step, e.Cause)
}

func (e *CancelledError) Unwrap() error { return e.Cause }

// ExecuteContext runs a bundle to opt.Steps with checkpoint/restart, VTK
// output, and CSV observables. Restart is bit-identical: the checkpoint
// carries the complete mutable state (cell grids, GMRES warm start, RNG
// stream, ledger), so a run interrupted at any checkpoint and resumed
// reproduces the uninterrupted trajectory exactly.
//
// ctx is threaded into every stepping world (core.Config.Ctx), where it is
// checked collectively at each step boundary. On cancellation the run stops
// at a consistent step, skips the partial segment's checkpoint and CSV
// writes, and returns a *CancelledError (wrapping ctx's cause) alongside the
// partial outcome. This is the one cancellation path shared by campaign run
// timeouts and the serve daemon's request timeouts/disconnects/drain.
func ExecuteContext(ctx context.Context, b *Bundle, opt RunOptions) (*RunOutcome, error) {
	opt.defaults()
	if ctx == nil {
		ctx = context.Background()
	}
	if len(b.Cells) == 0 {
		return nil, fmt.Errorf("scenario %s: no cells to simulate (raise hct/max_cells or shrink cell_radius)", b.Scenario)
	}

	cells := b.Cells
	var phi []float64
	startStep := 0
	resumedFrom := -1
	rng := NewRNG(b.Params.Seed)
	var ledger par.Ledger
	v0 := totalVolume(cells)
	out := &RunOutcome{Scenario: b.Scenario, ResumedFrom: -1}

	ckptPath := ""
	if opt.OutDir != "" {
		ckptPath = filepath.Join(opt.OutDir, "state.ckpt")
		if !opt.NoResume {
			ck, err := LoadCheckpoint(ckptPath)
			switch {
			case err == nil:
				if cells, err = ck.resumeCells(b); err != nil {
					return nil, fmt.Errorf("scenario: checkpoint %s: %w", ckptPath, err)
				}
				phi = ck.Phi
				startStep = ck.Step
				resumedFrom = ck.Step
				rng.State = ck.RNG
				ledger = ck.Ledger
				v0 = ck.V0
				out.ResumedFrom = ck.Step
				// Continue the metrics accumulation where the checkpoint
				// left it (no-op on a nil registry or a zero snapshot).
				opt.Telemetry.Restore(ck.Telemetry)
			case os.IsNotExist(err):
				// fresh run
			default:
				return nil, err
			}
		}
	}

	if b.Surf != nil {
		out.VolFraction = v0 / b.Surf.EnclosedVolume()
	}

	// Cancelled before any compute: return before the (possibly expensive)
	// plan materialization.
	if err := ctx.Err(); err != nil {
		return out, &CancelledError{Scenario: b.Scenario, Step: startStep, Cause: err}
	}

	// Materialize the wall-operator plan once per run, outside the ranked
	// worlds: every checkpoint segment (and every rank) below consumes the
	// same plan instead of re-precomputing, and runs sharing a Geom (or a
	// PlanCache entry from an earlier invocation) skip the build entirely.
	// A build runs on every core (0 workers = GOMAXPROCS).
	var wallPlan *bie.QuadPlan
	if b.Surf != nil && startStep < opt.Steps {
		var src bie.PlanSource
		var err error
		if b.Geom != nil {
			wallPlan, src, err = b.Geom.WallPlan(0, opt.PlanCache, opt.Telemetry)
		} else {
			wallPlan, src, err = bie.PlanFor(b.Surf, 0, opt.PlanCache, opt.Telemetry)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario %s: wall plan: %w", b.Scenario, err)
		}
		out.PlanFingerprint = wallPlan.Fingerprint
		out.PlanSource = string(src)
	}

	var obs *Observer
	if opt.OutDir != "" {
		var err error
		if obs, err = NewObserver(opt.OutDir, startStep); err != nil {
			return nil, err
		}
		defer obs.Close()
		if b.Surf != nil {
			wallPath := filepath.Join(opt.OutDir, "wall.vtk")
			err := writeFileVTK(wallPath, func(w io.Writer) error {
				return WriteSurfaceVTK(w, b.Surf, wallVTKRes, b.Scenario+" wall")
			})
			if err != nil {
				return nil, err
			}
			if _, _, err := ValidateVTKFile(wallPath); err != nil {
				return nil, err
			}
			out.Outputs = append(out.Outputs, wallPath)
		}
	}

	writeCellsSnapshot := func(step int) error {
		if opt.OutDir == "" {
			return nil
		}
		p := filepath.Join(opt.OutDir, fmt.Sprintf("cells_%06d.vtk", step))
		err := writeFileVTK(p, func(w io.Writer) error {
			return WriteCellsVTK(w, cells, fmt.Sprintf("%s cells step %d", b.Scenario, step))
		})
		if err != nil {
			return err
		}
		if _, _, err := ValidateVTKFile(p); err != nil {
			return err
		}
		out.Outputs = append(out.Outputs, p)
		return nil
	}

	for start := startStep; start < opt.Steps; {
		// Segment-boundary check: don't spin up a fresh world (and pay a
		// whole step) when cancellation already landed between segments.
		if err := ctx.Err(); err != nil {
			out.Steps = start
			out.Telemetry = opt.Telemetry.Snapshot()
			return out, &CancelledError{Scenario: b.Scenario, Step: start, Cause: err}
		}
		segEnd := opt.Steps
		if opt.CheckpointEvery > 0 && start+opt.CheckpointEvery < segEnd {
			segEnd = start + opt.CheckpointEvery
		}
		seg := segEnd - start

		var rows []ObsRow
		var cents [][][3]float64
		var lastStats core.StepStats
		cfg := b.Config
		cfg.Ctx = ctx
		cfg.WallPlan = wallPlan
		cfg.Telemetry = opt.Telemetry
		cfg.Health = opt.Health
		if opt.InjectNaNStep > 0 {
			inject := opt.InjectNaNStep
			cfg.FaultInject = func(step int, cs []*rbc.Cell) {
				if step == inject && len(cs) > 0 {
					cs[0].X[0][0] = math.NaN()
				}
			}
		}
		// drifted[r] is rank r's core.volume_drift verdict on the step just
		// taken. Every rank holds the same allreduced volume, so every rank
		// reaches the same verdict and leaves the step loop at the same step.
		drifted := make([]bool, opt.Ranks)
		cfg.OnStep = func(c *par.Comm, sim *core.Simulation, step int, st core.StepStats) {
			parts := par.Allgatherv(c, sim.Centroids())
			vol := sim.TotalCellVolume(c)
			var volErr float64
			if v0 > 0 {
				volErr = (vol - v0) / v0
			}
			drifted[c.Rank()] = !opt.Health.CheckVolumeDrift(volErr)
			if c.Rank() != 0 {
				return
			}
			var all [][3]float64
			for _, p := range parts {
				all = append(all, p...)
			}
			row := ObsRow{
				Step: step, Time: float64(step) * sim.Cfg.Dt, NumCells: len(all),
				GMRES: st.GMRESIters, Contacts: st.Contacts, NCPIters: st.NCPIters,
				CellVolume: vol, VolumeErr: volErr,
			}
			for _, cen := range all {
				row.MeanX += cen[0]
				row.MeanY += cen[1]
				row.MeanZ += cen[2]
			}
			if len(all) > 0 {
				n := float64(len(all))
				row.MeanX, row.MeanY, row.MeanZ = row.MeanX/n, row.MeanY/n, row.MeanZ/n
			}
			rows = append(rows, row)
			cents = append(cents, all)
			lastStats = st
			if opt.OnRow != nil {
				opt.OnRow(row)
			}
		}

		traceLabel := opt.TraceLabel
		if traceLabel == "" {
			traceLabel = b.Scenario
		}
		var nextCells []*rbc.Cell
		var nextPhi []float64
		haltStep := start
		cancelled := false
		world := par.Run(opt.Ranks, opt.Machine, func(c *par.Comm) {
			// Pin this segment's rank goroutine to a stable named timeline:
			// every checkpoint segment spawns fresh goroutines, but in the
			// exported trace they all land on one "<label>/rankN" row.
			trace.FromRegistry(opt.Telemetry).LabelCurrent(
				fmt.Sprintf("%s/rank%d", traceLabel, c.Rank()))
			sim := core.New(c, cfg, cells, b.Surf, b.G)
			sim.StepCount = start
			sim.RestorePhi(c, phi)
			for s := 0; s < seg; s++ {
				st := sim.Step(c)
				if st.HealthTripped || st.Cancelled || drifted[c.Rank()] {
					// Collective verdicts: every rank sees the same flags,
					// every rank breaks here — collectives stay aligned.
					break
				}
			}
			nc := sim.ExportCells(c)
			np := sim.ExportPhi(c)
			if c.Rank() == 0 {
				nextCells, nextPhi = nc, np
				haltStep = sim.StepCount
				cancelled = sim.LastStats.Cancelled
			}
		})
		cells, phi = nextCells, nextPhi
		segLedger := world.Ledger()
		ledger.Add(segLedger)

		if opt.Health.Tripped() {
			// The run halted inside this segment. Keep the observable rows of
			// the completed steps, write the postmortem bundle, and do NOT
			// checkpoint (the tripped state must not become a resume point —
			// the surviving checkpoint is the last healthy one; RNGState in
			// the bundle's meta is that checkpoint's stream state).
			out.Rows = append(out.Rows, rows...)
			out.LastStats = lastStats
			out.Steps = haltStep
			herr := &HealthError{Scenario: b.Scenario, Step: haltStep, Verdicts: opt.Health.Verdicts()}
			if opt.OutDir != "" {
				for i, row := range rows {
					obs.Record(row, cents[i])
				}
				dir, err := WriteFlightBundle(opt.OutDir, FlightMeta{
					Scenario:    b.Scenario,
					ParamsSig:   b.Params.Signature(),
					Params:      b.Params,
					Seed:        b.Params.Seed,
					Step:        haltStep,
					ResumedFrom: resumedFrom,
					RNGState:    rng.State,
					Ranks:       opt.Ranks,
				}, opt.Health, trace.FromRegistry(opt.Telemetry), opt.Telemetry)
				if err != nil {
					return out, fmt.Errorf("%w (and flight bundle failed: %v)", herr, err)
				}
				herr.BundleDir = dir
				out.Outputs = append(out.Outputs, dir)
			}
			out.Telemetry = opt.Telemetry.Snapshot()
			return out, herr
		}
		if cancelled {
			// The run was cancelled mid-segment (timeout, disconnect, drain).
			// Every completed step is consistent in-memory state, but NOTHING
			// of this segment is written: no checkpoint (the surviving resume
			// point is the last completed segment's), no CSV rows, no VTK.
			// The caller gets the partial outcome and a typed error carrying
			// the context cause.
			out.Rows = append(out.Rows, rows...)
			out.LastStats = lastStats
			out.Steps = haltStep
			out.Telemetry = opt.Telemetry.Snapshot()
			cause := ctx.Err()
			if cause == nil {
				cause = context.Canceled // raced a late Done observation
			}
			return out, &CancelledError{Scenario: b.Scenario, Step: haltStep, Cause: cause}
		}
		for i := 0; i < seg; i++ {
			rng.Uint64()
		}
		out.Rows = append(out.Rows, rows...)
		out.LastStats = lastStats

		if opt.OutDir != "" {
			// Segment ids count checkpoint intervals from step 0, so a
			// resumed run continues the uninterrupted numbering.
			segment := 0
			if opt.CheckpointEvery > 0 {
				segment = start / opt.CheckpointEvery
			}
			// CSV rows are flushed BEFORE the checkpoint rename: a crash in
			// between leaves rows past the (older) checkpoint, which the
			// next resume rewinds — never a checkpoint whose rows are lost.
			for i, row := range rows {
				obs.Record(row, cents[i])
			}
			if err := obs.RecordSegment(segment, segEnd, segLedger); err != nil {
				return nil, err
			}
			// The checkpointed snapshot drops invocation-scoped metrics
			// (plan-cache provenance, the operator's coarse-level build): a
			// resumed process re-counts its own cache encounters and rebuilds
			// its own operator, and the resume-stable core must not carry the
			// interrupted process's.
			telSnap := opt.Telemetry.Snapshot().Without("bie.plan.", "bie.coarse.build")
			if err := obs.RecordTelemetry(segment, segEnd, telSnap); err != nil {
				return nil, err
			}
			if err := SaveCheckpoint(ckptPath, &Checkpoint{
				Scenario:  b.Scenario,
				ParamsSig: b.Params.Signature(),
				Step:      segEnd,
				Cells:     StateFromCells(cells),
				Phi:       phi,
				V0:        v0,
				RNG:       rng.State,
				Ledger:    ledger,
				Telemetry: telSnap,
			}); err != nil {
				return nil, err
			}
			crossed := opt.OutputEvery > 0 && segEnd/opt.OutputEvery > start/opt.OutputEvery
			if crossed && segEnd < opt.Steps {
				if err := writeCellsSnapshot(segEnd); err != nil {
					return nil, err
				}
			}
		}
		start = segEnd
	}

	finalStep := opt.Steps
	if startStep > finalStep {
		finalStep = startStep // checkpoint already past the target
	}
	if err := writeCellsSnapshot(finalStep); err != nil {
		return nil, err
	}
	if obs != nil {
		out.Outputs = append(out.Outputs, obs.Files()...)
	}
	if ckptPath != "" {
		out.Outputs = append(out.Outputs, ckptPath)
	}

	out.Steps = finalStep
	out.Centroids = make([][3]float64, len(cells))
	for i, c := range cells {
		out.Centroids[i] = c.Centroid()
	}
	out.Ledger = ledger
	out.ResumedFrom = resumedFrom
	out.Telemetry = opt.Telemetry.Snapshot()
	return out, nil
}
