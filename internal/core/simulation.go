// Package core orchestrates the full per-step algorithm of paper §2.2:
// membrane forces, the free-space cell field u^fr on Γ, the boundary solve
// for ϕ, the velocity correction u^Γ on cells, the explicit inter-cell
// term, the per-cell locally-implicit update, and the collision NCP loop —
// with the timing breakdown of §5.2 (COL, BIE-solve, BIE-FMM, Other-FMM,
// Other) accumulated in the par.World virtual-time ledger.
package core

import (
	"context"
	"math"
	"time"

	"rbcflow/internal/bie"
	"rbcflow/internal/collision"
	"rbcflow/internal/fmm"
	"rbcflow/internal/kernels"
	"rbcflow/internal/par"
	"rbcflow/internal/rbc"
	"rbcflow/internal/telemetry"
	"rbcflow/internal/trace"
)

// Config configures a simulation.
type Config struct {
	// Ctx, when non-nil, is the run's cancellation scope: Step checks it at
	// every step boundary and agrees COLLECTIVELY (one allreduce, shared
	// with the health verdict) whether any rank observed cancellation, so
	// all ranks leave the step loop together and no collective deadlocks on
	// an asymmetric abort. This is how per-request timeouts, client
	// disconnects, and campaign run timeouts actually stop the compute loop
	// instead of abandoning it. All ranks of a world MUST share one Ctx.
	Ctx      context.Context
	SphOrder int     // spherical-harmonic order of cells
	Mu       float64 // ambient viscosity
	KappaB   float64 // bending modulus
	Dt       float64
	MinSep   float64 // collision separation distance
	// Background is an imposed free-space flow (e.g. shear u = [γ̇ z, 0, 0]);
	// nil for none.
	Background func(x [3]float64) [3]float64
	// Gravity is a uniform body-force density on membranes.
	Gravity [3]float64
	// BIE/GMRES controls.
	BIEMode bie.Mode // one value, bie.ModeLocal; kept because bench/ reads it
	FMM     bie.FMMConfig
	// WallPlan is a prebuilt (possibly disk-cached) near-field correction
	// plan consumed instead of precomputing per rank; see bie.PlanFor and
	// scenario.Geom, which share one plan across ranks, checkpoint
	// segments, and sweep points of equal geometry.
	WallPlan    *bie.QuadPlan
	GMRESMax    int     // boundary-solve iteration cap (paper: 30)
	GMRESTol    float64 // boundary-solve tolerance
	CollisionOn bool
	// OnStep, if non-nil, is an observable hook invoked by every rank at the
	// end of each Step with the completed step's 1-based counter (collective
	// position: hooks may call collectives, e.g. to gather centroids, but
	// must not mutate simulation state).
	OnStep func(c *par.Comm, s *Simulation, step int, st StepStats)
	// Telemetry, when non-nil, receives the step spans (core.step plus the
	// per-phase core.step.* breakdown), the operator/solve metrics of the
	// wall operator, the FMM per-pass spans of both evaluators, and the
	// collision NCP counters. All ranks record into it (it is
	// concurrency-safe); counter values therefore scale with the rank count
	// but stay deterministic for a fixed one. Nil disables all recording at
	// no hot-path cost.
	Telemetry *telemetry.Registry
	// Health, when non-nil, attaches the numerical-health monitor: NaN/Inf
	// guards at phase boundaries (cell state after commit, matvec output,
	// GMRES vectors), the GMRES stall/divergence detectors, and the
	// collision contact checks. MUST be the same monitor on every rank of
	// the world: Step agrees on the tripped flag collectively (see
	// StepStats.HealthTripped), so ranks leave the step loop together and
	// no collective deadlocks on an asymmetric abort.
	Health *trace.Health
	// FaultInject, when non-nil, runs at the top of every Step on the
	// rank-local cells before any physics — the fault-injection seam used by
	// the flight-recorder smoke tests (e.g. poisoning one coordinate with
	// NaN at a chosen step). Never set in production runs.
	FaultInject func(step int, cells []*rbc.Cell)
}

// Defaults fills zero fields with sensible values.
func (c *Config) Defaults() {
	if c.SphOrder == 0 {
		c.SphOrder = 8
	}
	if c.Mu == 0 {
		c.Mu = 1
	}
	if c.KappaB == 0 {
		c.KappaB = 0.01
	}
	if c.Dt == 0 {
		c.Dt = 0.05
	}
	if c.GMRESMax == 0 {
		c.GMRESMax = 30
	}
	if c.GMRESTol == 0 {
		c.GMRESTol = 1e-4
	}
	if c.MinSep == 0 {
		c.MinSep = 0.05
	}
}

// Simulation owns the rank-local state: this rank's cells and, when a
// vessel is present, the shared surface and the rank's patch range.
type Simulation struct {
	Cfg Config
	// Cells are the rank-local cells; CellIDOffset maps local index i to
	// global id CellIDOffset+i.
	Cells        []*rbc.Cell
	CellIDOffset int
	totalCells   int

	Surf   *bie.Surface
	Solver bie.WallOperator
	G      []float64 // boundary condition at owned nodes (3 per node)
	phi    []float64 // warm-started density

	sq          *rbc.SingularQuad
	patchMeshes []*collision.Mesh
	stokes      *fmm.Evaluator

	// Stats of the most recent step.
	LastStats StepStats
	// StepCount is the number of Steps taken. A simulation restored from a
	// checkpoint sets it to the checkpoint's step so OnStep numbering
	// continues seamlessly.
	StepCount int
}

// StepStats summarizes one step.
type StepStats struct {
	GMRESIters     int
	Contacts       int
	NCPIters       int
	CellsInContact int
	// PhaseSec is the wall-clock breakdown of this step by phase (forces,
	// boundary, intercell, implicit, collision, commit) in seconds — the
	// per-step complement of the registry's cumulative core.step.* spans.
	// Wall-clock measurements: report them, never compare them.
	PhaseSec map[string]float64
	// HealthTripped reports the COLLECTIVE health verdict of this step: true
	// on every rank when any rank's monitor tripped fatally (agreed by
	// allreduce at the end of Step). Executors halt the run — and write the
	// flight-recorder bundle — when it is set.
	HealthTripped bool
	// Cancelled reports the COLLECTIVE cancellation verdict: true on every
	// rank when any rank observed Config.Ctx done by the end of this step
	// (agreed by the same allreduce as HealthTripped). The completed step is
	// consistent state; executors must stop stepping — and must not
	// checkpoint the cancelled segment.
	Cancelled bool
}

// New builds a simulation. cells are the global cell list; each rank keeps
// its block. surf may be nil (free-space flow, as in the shear and
// sedimentation studies). g is the boundary condition sampled at ALL coarse
// nodes (3 per node); may be nil for zero (no-slip).
func New(c *par.Comm, cfg Config, cells []*rbc.Cell, surf *bie.Surface, g []float64) *Simulation {
	cfg.Defaults()
	s := &Simulation{Cfg: cfg, Surf: surf, totalCells: len(cells)}
	lo, hi := par.BlockRange(len(cells), c.Size(), c.Rank())
	// A private copy of the block: Step stores the committed candidates
	// into s.Cells, which must not advance the caller's list.
	s.Cells = append([]*rbc.Cell(nil), cells[lo:hi]...)
	s.CellIDOffset = lo
	s.sq = rbc.NewSingularQuad(cfg.SphOrder)
	s.stokes = fmm.NewEvaluator(fmm.Config{
		Kernel:      kernels.Stokeslet{Mu: cfg.Mu},
		Order:       cfg.FMM.Order,
		LeafSize:    cfg.FMM.LeafSize,
		DirectBelow: cfg.FMM.DirectBelow,
		Tel:         cfg.Telemetry,
		Health:      cfg.Health,
	})
	if surf != nil {
		s.Solver = bie.NewWallOperator(c, surf,
			bie.WithMode(cfg.BIEMode),
			bie.WithFMM(cfg.FMM),
			bie.WithPlan(cfg.WallPlan),
			bie.WithTelemetry(cfg.Telemetry),
			bie.WithHealth(cfg.Health))
		plo, phi := surf.F.OwnerRange(c.Size(), c.Rank())
		nOwn := (phi - plo) * surf.NQ
		s.G = make([]float64, 3*nOwn)
		if g != nil {
			copy(s.G, g[plo*surf.NQ*3:phi*surf.NQ*3])
		}
		s.phi = make([]float64, 3*nOwn)
		// Rigid patch collision meshes (replicated; IDs after all cells).
		for pid, pp := range surf.F.Patches {
			s.patchMeshes = append(s.patchMeshes, collision.MeshFromPatch(s.totalCells+pid, pp, 8))
		}
	}
	c.Barrier()
	return s
}

// cellForce computes f = f_b + gravity for one cell.
func (s *Simulation) cellForce(cell *rbc.Cell, geo *rbc.Geometry) [3][]float64 {
	f := cell.BendingForce(s.Cfg.KappaB, geo)
	gv := s.Cfg.Gravity
	if gv != [3]float64{} {
		for d := 0; d < 3; d++ {
			for k := range f[d] {
				f[d][k] += gv[d]
			}
		}
	}
	return f
}

// Step advances the system by Δt (collective).
func (s *Simulation) Step(c *par.Comm) StepStats {
	cfg := s.Cfg
	stats := StepStats{PhaseSec: map[string]float64{}}
	c.SetLabel("Other")
	// Timeline attribution: stamp this goroutine's events with the
	// in-progress 1-based step, so every span of the solve/FMM/collision
	// cascade below carries it in the exported trace.
	rec := trace.FromRegistry(cfg.Telemetry)
	rec.SetStep(s.StepCount + 1)
	cfg.Health.BeginStep(s.StepCount + 1)
	if cfg.FaultInject != nil {
		cfg.FaultInject(s.StepCount+1, s.Cells)
	}
	defer telemetry.Start(cfg.Telemetry, "core.step")()
	mark := time.Now()
	endPhase := func(name string) {
		now := time.Now()
		d := now.Sub(mark).Seconds()
		stats.PhaseSec[name] += d
		if cfg.Telemetry != nil {
			cfg.Telemetry.Histogram("core.step." + name).Observe(d)
		}
		// The phase was measured with explicit marks, so it lands on the
		// timeline as one backdated complete event nested inside core.step.
		rec.Complete("core.step."+name, now.Sub(mark))
		mark = now
	}

	// (0) Geometry, forces, and FMM source data for the rank-local cells.
	nLoc := len(s.Cells)
	geos := make([]*rbc.Geometry, nLoc)
	forces := make([][3][]float64, nLoc)
	var srcPos [][3]float64
	var srcQ []float64
	npts := 0
	if nLoc > 0 {
		npts = s.Cells[0].Grid.NumPoints()
	}
	for i, cell := range s.Cells {
		geos[i] = cell.ComputeGeometry()
		forces[i] = s.cellForce(cell, geos[i])
		w := cell.QuadWeights(geos[i])
		pts := cell.Points()
		srcPos = append(srcPos, pts...)
		for k := 0; k < npts; k++ {
			srcQ = append(srcQ,
				forces[i][0][k]*w[k], forces[i][1][k]*w[k], forces[i][2][k]*w[k])
		}
	}

	endPhase("forces")

	// (1a–1b) u^fr on Γ and the boundary solve for ϕ.
	var uGammaCells []float64
	if s.Surf != nil {
		c.SetLabel("Other-FMM")
		plo, phiHi := s.Surf.F.OwnerRange(c.Size(), c.Rank())
		ownNodes := s.Surf.Pts[plo*s.Surf.NQ : phiHi*s.Surf.NQ]
		ufr := fmm.EvaluateDist(c, s.stokes, srcPos, srcQ, ownNodes)
		c.SetLabel("BIE-solve")
		rhs := make([]float64, len(s.G))
		for i := range rhs {
			rhs[i] = s.G[i] - ufr[i]
		}
		phi, res := bie.Solve(c, s.Solver, rhs, s.phi, cfg.GMRESTol, cfg.GMRESMax)
		s.phi = phi
		stats.GMRESIters = res.Iterations

		// (1c) u^Γ at the rank-local cell points (near-singular treatment
		// for cells close to the wall).
		c.SetLabel("BIE-solve")
		// The search radius must cover the widest near zone, which scales
		// with each patch's LONGEST side (anisotropic graded rim panels;
		// see bie.Surface.LMax) — matching EvalVelocity's near gate.
		dEps := 0.0
		for pid := range s.Surf.F.Patches {
			dEps = math.Max(dEps, s.Surf.P.NearFactor*s.Surf.LMax[pid])
		}
		cls := s.Surf.F.ClosestPoints(c, srcPos, dEps)
		uGammaCells = s.Solver.EvalVelocity(c, s.phi, srcPos, cls)
	}
	endPhase("boundary")

	// (1d) Explicit inter-cell contribution: FMM over all cells minus the
	// smooth self term (the accurate self term is implicit).
	c.SetLabel("Other-FMM")
	uCells := fmm.EvaluateDist(c, s.stokes, srcPos, srcQ, srcPos)
	c.SetLabel("Other")
	for i, cell := range s.Cells {
		self := cell.SmoothSelfVelocity(geos[i], cfg.Mu, forces[i])
		for k := 0; k < npts; k++ {
			for d := 0; d < 3; d++ {
				uCells[(i*npts+k)*3+d] -= self[d][k]
			}
		}
	}
	endPhase("intercell")

	// (2) Per-cell locally-implicit update to candidate positions. A cell
	// whose solve stalls or breaks down still commits; the counter, registered
	// every step so a clean run reports 0, records it.
	unconverged := cfg.Telemetry.Counter("rbc.implicit.unconverged")
	candidates := make([]*rbc.Cell, nLoc)
	for i, cell := range s.Cells {
		var b [3][]float64
		for d := 0; d < 3; d++ {
			b[d] = make([]float64, npts)
		}
		for k := 0; k < npts; k++ {
			x := [3]float64{cell.X[0][k], cell.X[1][k], cell.X[2][k]}
			var bg [3]float64
			if cfg.Background != nil {
				bg = cfg.Background(x)
			}
			for d := 0; d < 3; d++ {
				v := uCells[(i*npts+k)*3+d] + bg[d]
				if uGammaCells != nil {
					v += uGammaCells[(i*npts+k)*3+d]
				}
				b[d][k] = v
			}
		}
		cand := cell.Copy()
		var fext [3][]float64
		if cfg.Gravity != ([3]float64{}) {
			for d := 0; d < 3; d++ {
				fext[d] = make([]float64, npts)
				for k := range fext[d] {
					fext[d][k] = cfg.Gravity[d]
				}
			}
		}
		res := cand.ImplicitStep(s.sq, rbc.ImplicitParams{
			Dt: cfg.Dt, Mu: cfg.Mu, KappaB: cfg.KappaB,
		}, b, fext)
		if !res.Converged || res.Breakdown != "" {
			unconverged.Inc()
		}
		candidates[i] = cand
	}
	endPhase("implicit")

	// (3) Collision NCP loop (paper §4).
	if cfg.CollisionOn {
		c.SetLabel("COL")
		stats.Contacts, stats.NCPIters = s.resolveCollisions(c, candidates)
	}
	endPhase("collision")

	// (4) Commit.
	c.SetLabel("Other")
	for i, cand := range candidates {
		s.Cells[i] = cand
	}
	endPhase("commit")

	if cfg.Health != nil {
		// Phase-boundary guard on the committed cell state: a NaN/Inf that
		// slipped through the solve guards (or was injected) is caught here
		// before it propagates into the next step's sources.
	scan:
		for _, cell := range s.Cells {
			for d := 0; d < 3; d++ {
				if !cfg.Health.CheckFinite("core.cellstate", cell.X[d]) {
					break scan // first bad cell is enough
				}
			}
		}
	}
	if cfg.Health != nil || cfg.Ctx != nil {
		// Collective trip/cancel agreement: every rank learns whether ANY
		// rank tripped its health monitor or observed context cancellation,
		// so all ranks leave the step loop together and no rank strands the
		// others in a collective. One allreduce covers both verdicts — the
		// only overhead on the healthy path (two floats per step).
		flag := []float64{0, 0}
		if cfg.Health != nil && cfg.Health.Tripped() {
			flag[0] = 1
		}
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			flag[1] = 1
		}
		c.AllreduceMax(flag)
		stats.HealthTripped = flag[0] > 0
		stats.Cancelled = flag[1] > 0
	}

	s.LastStats = stats
	s.StepCount++
	if cfg.OnStep != nil {
		cfg.OnStep(c, s, s.StepCount, stats)
	}
	return stats
}

// resolveCollisions gathers all cell meshes, finds candidate pairs with the
// space-time spatial hash, and runs the NCP loop; displacements are applied
// to the rank-local candidate cells.
func (s *Simulation) resolveCollisions(c *par.Comm, candidates []*rbc.Cell) (contacts, iters int) {
	// Local cell meshes (V = current, VNext = candidate).
	byID := map[int]*collision.Mesh{}
	localIDs := map[int]bool{}
	var localMeshes []*collision.Mesh
	var before [][][3]float64
	for i, cell := range s.Cells {
		id := s.CellIDOffset + i
		m := collision.MeshFromCell(id, cell)
		collision.SyncMeshFromCell(m, cell, candidates[i])
		byID[id] = m
		localIDs[id] = true
		localMeshes = append(localMeshes, m)
		bv := make([][3]float64, len(m.VNext))
		copy(bv, m.VNext)
		before = append(before, bv)
	}
	// Exchange remote cell meshes (flattened vertex data).
	type wire struct {
		ID int
		V  [][3]float64
		VN [][3]float64
	}
	var flat []float64
	for _, m := range localMeshes {
		flat = append(flat, float64(m.ID), float64(len(m.V)))
		for _, v := range m.V {
			flat = append(flat, v[0], v[1], v[2])
		}
		for _, v := range m.VNext {
			flat = append(flat, v[0], v[1], v[2])
		}
	}
	parts := par.Allgatherv(c, flat)
	for r, chunk := range parts {
		if r == c.Rank() {
			continue
		}
		pos := 0
		for pos < len(chunk) {
			id := int(chunk[pos])
			nv := int(chunk[pos+1])
			pos += 2
			m := &collision.Mesh{ID: id}
			m.V = make([][3]float64, nv)
			m.VNext = make([][3]float64, nv)
			for k := 0; k < nv; k++ {
				m.V[k] = [3]float64{chunk[pos], chunk[pos+1], chunk[pos+2]}
				pos += 3
			}
			for k := 0; k < nv; k++ {
				m.VNext[k] = [3]float64{chunk[pos], chunk[pos+1], chunk[pos+2]}
				pos += 3
			}
			// Topology and weights from a mesh of the same grid: the first
			// local one (both are read-only).
			if len(localMeshes) > 0 {
				m.Tri = localMeshes[0].Tri
				m.VertW = localMeshes[0].VertW
			}
			byID[id] = m
		}
	}
	// Rigid patch meshes: registered by owning rank, readable everywhere.
	for _, pm := range s.patchMeshes {
		byID[pm.ID] = pm
	}
	regMeshes := append([]*collision.Mesh{}, localMeshes...)
	if s.Surf != nil {
		plo, phiHi := s.Surf.F.OwnerRange(c.Size(), c.Rank())
		for pid := plo; pid < phiHi; pid++ {
			regMeshes = append(regMeshes, s.patchMeshes[pid])
		}
	}
	pairs := collision.CandidatePairs(c, regMeshes, s.Cfg.MinSep)
	contacts, iters = collision.Resolve(c, pairs, byID, localIDs, collision.ResolveParams{
		MinSep:   s.Cfg.MinSep,
		Mobility: s.Cfg.Dt / s.Cfg.Mu,
		MaxNCP:   7,
		Tel:      s.Cfg.Telemetry,
		Health:   s.Cfg.Health,
	})
	// Apply displacements back to the candidate grids.
	for i, m := range localMeshes {
		collision.ApplyMeshDisplacement(m, before[i], candidates[i])
	}
	return contacts, iters
}

// Centroids returns the rank-local cell centroids.
func (s *Simulation) Centroids() [][3]float64 {
	out := make([][3]float64, len(s.Cells))
	for i, c := range s.Cells {
		out[i] = c.Centroid()
	}
	return out
}

// TotalCellVolume sums the rank-local cell volumes (allreduce for global).
func (s *Simulation) TotalCellVolume(c *par.Comm) float64 {
	v := []float64{0}
	for _, cell := range s.Cells {
		v[0] += cell.Volume()
	}
	c.AllreduceSum(v)
	return v[0]
}

// ExportCells gathers the full, globally-ordered cell list onto every rank
// (collective). The returned cells are fresh copies; together with ExportPhi
// they form the complete mutable state of a run, so a simulation rebuilt
// from them via New + RestorePhi continues bit-identically.
func (s *Simulation) ExportCells(c *par.Comm) []*rbc.Cell {
	npts := rbc.NewCell(s.Cfg.SphOrder).Grid.NumPoints()
	local := make([]float64, 0, len(s.Cells)*3*npts)
	for _, cell := range s.Cells {
		for d := 0; d < 3; d++ {
			local = append(local, cell.X[d]...)
		}
	}
	all, _ := par.AllgathervFlat(c, local)
	ncells := len(all) / (3 * npts)
	out := make([]*rbc.Cell, ncells)
	for i := 0; i < ncells; i++ {
		cell := rbc.NewCell(s.Cfg.SphOrder)
		for d := 0; d < 3; d++ {
			copy(cell.X[d], all[(i*3+d)*npts:(i*3+d+1)*npts])
		}
		out[i] = cell
	}
	return out
}

// ExportPhi gathers the globally-ordered boundary density warm start
// (collective); nil when the simulation has no vessel surface. Restoring it
// with RestorePhi makes the first GMRES solve after a restart start from the
// same iterate as an uninterrupted run.
func (s *Simulation) ExportPhi(c *par.Comm) []float64 {
	if s.Surf == nil {
		return nil
	}
	all, _ := par.AllgathervFlat(c, s.phi)
	return all
}

// RestorePhi scatters a globally-ordered density (from ExportPhi) back into
// this rank's owned block.
func (s *Simulation) RestorePhi(c *par.Comm, phi []float64) {
	if s.Surf == nil || phi == nil {
		return
	}
	plo, phiHi := s.Surf.F.OwnerRange(c.Size(), c.Rank())
	copy(s.phi, phi[plo*s.Surf.NQ*3:phiHi*s.Surf.NQ*3])
}
