package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"rbcflow/internal/bie"
	"rbcflow/internal/collision"
	"rbcflow/internal/core"
	"rbcflow/internal/fmm"
	"rbcflow/internal/forest"
	"rbcflow/internal/kernels"
	"rbcflow/internal/par"
	"rbcflow/internal/rbc"
	"rbcflow/internal/scenario"
	"rbcflow/internal/telemetry"
	"rbcflow/internal/trace"
)

var stepPhases = []string{"forces", "boundary", "intercell", "implicit", "collision", "commit"}

// tracedOut is what the traced stepping of one bundle produced.
type tracedOut struct {
	cells    int
	gmresCap int                  // the stepped simulation's iteration cap
	wallS    []float64            // wall time of every real step
	phaseS   map[string][]float64 // StepStats.PhaseSec per real step
	allocMB  []float64
	allocs   []float64
	resid    []float64
	stats    []core.StepStats
	rows     []scenario.ObsRow
	cents    [][3]float64
	verdicts []trace.Verdict
	replays  []replayOut
	tel      telemetry.Snapshot
	problems []string
}

// replaySteps picks the 1-based steps that are replayed: first, middle, last.
func replaySteps(steps int) map[int]bool {
	return map[int]bool{1: true, (steps + 1) / 2: true, steps: true}
}

// stepTraced drives core.New + Simulation.Step directly inside a 1-rank
// world with a telemetry registry attached. Before the first, the middle
// and the last step it replays that step's calls on the live state through
// the layers' public functions, each under a harness span; the replay works
// on copies and leaves the simulation untouched, so the run's trajectory is
// the untraced run's.
func stepTraced(b *scenario.Bundle, plan *bie.QuadPlan, steps int, rec *Recorder) *tracedOut {
	t := &tracedOut{cells: len(b.Cells), phaseS: map[string][]float64{}}
	reg := telemetry.NewRegistry()
	health := newHealth(reg)
	cfg := b.Config
	cfg.WallPlan = plan
	cfg.Telemetry = reg
	cfg.Health = health
	cells := freshCells(b)
	var v0 float64
	for _, c := range cells {
		v0 += c.Volume()
	}
	at := replaySteps(steps)

	par.Run(1, par.SKX(), func(c *par.Comm) {
		sim := core.New(c, cfg, cells, b.Surf, b.G)
		t.gmresCap = sim.Cfg.GMRESMax
		rp := newReplayer(c, sim, plan, rec)
		var m0, m1 runtime.MemStats
		for k := 1; k <= steps; k++ {
			replayed := at[k]
			if replayed {
				t.replays = append(t.replays, rp.replay(sim, k))
			}
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			st := sim.Step(c)
			wall := time.Since(t0).Seconds()
			runtime.ReadMemStats(&m1)

			t.wallS = append(t.wallS, wall)
			t.stats = append(t.stats, st)
			for _, ph := range stepPhases {
				t.phaseS[ph] = append(t.phaseS[ph], st.PhaseSec[ph])
			}
			t.allocMB = append(t.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			t.allocs = append(t.allocs, float64(m1.Mallocs-m0.Mallocs))
			t.resid = append(t.resid, reg.Gauge("bie.gmres.residual").Value())

			row := scenario.ObsRow{Step: k, NumCells: len(sim.Cells), GMRES: st.GMRESIters,
				Contacts: st.Contacts, NCPIters: st.NCPIters, CellVolume: sim.TotalCellVolume(c)}
			for _, cen := range sim.Centroids() {
				row.MeanX += cen[0] / float64(len(sim.Cells))
				row.MeanY += cen[1] / float64(len(sim.Cells))
				row.MeanZ += cen[2] / float64(len(sim.Cells))
			}
			row.VolumeErr = (row.CellVolume - v0) / v0
			t.rows = append(t.rows, row)

			if replayed {
				// The replay ran on this step's inputs, so it must have done
				// this step's work; if not, its timings describe something else.
				r := &t.replays[len(t.replays)-1]
				r.stepWallS = wall
				if r.gmresIters != st.GMRESIters || r.contacts != st.Contacts {
					t.problems = append(t.problems, fmt.Sprintf(
						"replay of step %d diverged from the step: GMRES %d vs %d, contacts %d vs %d",
						k, r.gmresIters, st.GMRESIters, r.contacts, st.Contacts))
				}
			}
			if st.HealthTripped {
				break
			}
		}
		t.cents = sim.Centroids()
	})
	t.verdicts = health.Verdicts()
	t.tel = reg.Snapshot()
	return t
}

// unattributedRange is the smallest and the largest share of a step's wall
// time that the replay's layer calls did not account for, over the replays.
func (t *tracedOut) unattributedRange() (lo, hi float64) {
	for i, r := range t.replays {
		g := 1 - r.callsS/r.stepWallS
		if i == 0 || g < lo {
			lo = g
		}
		if i == 0 || g > hi {
			hi = g
		}
	}
	return lo, hi
}

// phaseGap is the median over steps of Σ(core.step.* phases) ÷ step wall − 1.
func (t *tracedOut) phaseGap() float64 {
	var gaps []float64
	for k, wall := range t.wallS {
		var s float64
		for _, ph := range stepPhases {
			s += t.phaseS[ph][k]
		}
		gaps = append(gaps, s/wall-1)
	}
	return median(gaps)
}

// metrics turns the traced run into the per-layer numbers.
func (t *tracedOut) metrics(L map[string]float64, un *execOut) {
	n := float64(len(t.wallS))
	if n == 0 {
		return
	}
	for _, ph := range stepPhases {
		L["core.step."+ph+"_s"] = median(t.phaseS[ph])
	}
	L["core.alloc_mb_per_step"] = median(t.allocMB)
	L["core.allocs_per_step"] = median(t.allocs)
	for _, r := range t.rows {
		L["core.vol_drift_max"] = math.Max(L["core.vol_drift_max"], math.Abs(r.VolumeErr))
	}
	if u := median(un.stepS()); u > 0 {
		L["trace.overhead_frac"] = median(t.wallS)/u - 1
	}
	if k := len(un.stamps); k > 0 {
		// What ExecuteContext spends after the last row (state export,
		// centroids, snapshot). What it spends before the first step is
		// constructing the simulation, which is core.new_s.
		L["scenario.execute_overhead_s"] = un.wallS - un.stamps[k-1]
	}

	// Counts, from the registry the real steps recorded into. The replays use
	// operators and evaluators of their own, so they are not in here.
	tel := t.tel
	spanCount := func(name string) float64 { s, _ := tel.Span(name); return float64(s.Count) }
	spanTotal := func(name string) float64 { s, _ := tel.Span(name); return s.TotalS }
	if solves := float64(tel.Counter("bie.gmres.solves")); solves > 0 {
		L["bie.gmres.iters_per_solve"] = float64(tel.Counter("bie.gmres.iterations")) / solves
		conv := 0.0
		for _, st := range t.stats {
			if st.GMRESIters < t.gmresCap {
				conv++
			}
		}
		L["bie.gmres.converged_frac"] = conv / n
		L["bie.gmres.residual_max"] = maxOf(t.resid)
	}
	L["fmm.direct_calls"] = spanCount("fmm.direct")
	L["fmm.tree_calls"] = spanCount("fmm.tree.build")
	L["fmm.tree.build_s"] = spanTotal("fmm.tree.build") / n
	L["fmm.upward_s"] = spanTotal("fmm.upward") / n
	L["fmm.downward_s"] = spanTotal("fmm.downward") / n
	L["collision.contacts_per_step"] = float64(tel.Counter("collision.contacts")) / n
	L["collision.ncp_iters_per_step"] = float64(tel.Counter("collision.ncp.iterations")) / n

	// Times, from the replays (median over the replayed steps).
	med := func(f func(r replayOut) float64) float64 {
		var xs []float64
		for _, r := range t.replays {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	span := func(name string) float64 { return med(func(r replayOut) float64 { return r.byName[name] }) }
	perCell := func(names ...string) float64 {
		return med(func(r replayOut) float64 {
			var s float64
			for _, nm := range names {
				s += r.byName[nm]
			}
			return s / float64(t.cells)
		})
	}
	L["core.step.unattributed_frac"] = med(func(r replayOut) float64 { return 1 - r.callsS/r.stepWallS })
	L["bie.solve_s"] = span("bie.solve")
	L["bie.matvec_s"] = span("bie.matvec")
	L["bie.matvec.far_s"] = span("fmm.wall2wall")
	L["bie.matvec.near_s"] = med(func(r replayOut) float64 { return r.byName["bie.matvec"] - r.byName["fmm.wall2wall"] })
	L["bie.evalvelocity_s"] = span("bie.evalvelocity")
	L["bie.evalvelocity.targets"] = med(func(r replayOut) float64 { return float64(r.targets) })
	L["bie.evalvelocity.near_frac"] = med(func(r replayOut) float64 {
		if r.targets == 0 || r.wallNodes == 0 {
			return 0
		}
		return float64(r.nearTargets) / float64(r.targets)
	})
	L["forest.closest_s"] = span("forest.closest")
	L["fmm.cells2wall_s"] = span("fmm.cells2wall")
	L["fmm.cells2cells_s"] = span("fmm.cells2cells")
	L["fmm.pairs_per_step"] = med(func(r replayOut) float64 { return r.fmmPairs })
	L["rbc.forces_s"] = perCell("rbc.geometry", "rbc.forces", "rbc.quadweights")
	L["rbc.implicit_s"] = perCell("rbc.implicit")
	L["rbc.selfvel_s"] = perCell("rbc.selfvel")
	L["collision.mesh_s"] = span("collision.mesh")
	L["collision.candidates_s"] = span("collision.candidates")
	L["collision.resolve_s"] = span("collision.resolve")
	for _, r := range t.replays {
		L["collision.pairs"] += float64(r.pairs)
	}
}

// replayOut is one replayed step.
type replayOut struct {
	step      int
	byName    map[string]float64 // total duration of the spans below the replay root, by name
	callsS    float64            // summed duration of the calls into the layers (the root's grandchildren)
	stepWallS float64            // wall time of the real step that followed

	gmresIters, contacts int
	targets, nearTargets int
	wallNodes, pairs     int
	fmmPairs             float64 // source-target pairs of the step's far-field sums (computed N*M)
}

// spanOp wraps a wall operator so that every matvec GMRES asks for shows up
// as a span under bie.solve.
type spanOp struct {
	bie.WallOperator
	rec *Recorder
}

func (o spanOp) Apply(c *par.Comm, phi []float64) []float64 {
	defer o.rec.Begin("bie.matvec")()
	return o.WallOperator.Apply(c, phi)
}

// spanFar wraps the far-field backend of the replay operator: the call from
// bie into fmm. name says which of the operator's two uses is running.
type spanFar struct {
	bie.FarField
	rec  *Recorder
	name string
	n    int
}

func (f *spanFar) Evaluate(c *par.Comm, srcPos [][3]float64, srcQ []float64, targets [][3]float64) []float64 {
	defer f.rec.Begin(f.name)()
	f.n++
	return f.FarField.Evaluate(c, srcPos, srcQ, targets)
}

// replayer owns what core.New builds privately for a Simulation — the
// free-space evaluator, the wall operator, the singular quadrature, the
// rigid patch meshes — rebuilt from the same public constructors.
type replayer struct {
	c           *par.Comm
	rec         *Recorder
	stokes      *fmm.Evaluator
	far         *spanFar
	op          bie.WallOperator
	sq          *rbc.SingularQuad
	patchMeshes []*collision.Mesh
}

func newReplayer(c *par.Comm, sim *core.Simulation, plan *bie.QuadPlan, rec *Recorder) *replayer {
	cfg := sim.Cfg
	rp := &replayer{c: c, rec: rec, sq: rbc.NewSingularQuad(cfg.SphOrder)}
	rp.stokes = fmm.NewEvaluator(fmm.Config{Kernel: kernels.Stokeslet{Mu: cfg.Mu},
		Order: cfg.FMM.Order, LeafSize: cfg.FMM.LeafSize, DirectBelow: cfg.FMM.DirectBelow})
	if sim.Surf != nil {
		rp.far = &spanFar{FarField: bie.FMMFarField(cfg.FMM), rec: rec}
		rp.op = spanOp{rec: rec, WallOperator: bie.NewWallOperator(c, sim.Surf,
			bie.WithMode(cfg.BIEMode), bie.WithPlan(plan), bie.WithFarField(rp.far))}
		// Rigid patch meshes take the IDs after all cells; the world has one
		// rank, so the rank-local cells are all of them.
		for pid, pp := range sim.Surf.F.Patches {
			rp.patchMeshes = append(rp.patchMeshes, collision.MeshFromPatch(len(sim.Cells)+pid, pp, 8))
		}
	}
	return rp
}

// freeSpace is the step's free-space sum (cells to wall nodes, cells to
// cells) as one span. The time of the FMM's downward pass depends on where
// the caller's stack frame happens to sit (identical input ran in 0.18 s to
// 0.68 s at different stack depths on the reference box; README.md,
// "Findings"), and a replay never sits where Step does. So the sum runs at
// three stack depths about 1.3 KB apart and the span carries the median.
func (rp *replayer) freeSpace(name string, srcPos [][3]float64, srcQ []float64, trg [][3]float64) []float64 {
	var u []float64
	var durs []float64
	start := rp.rec.now()
	for _, depth := range []int{0, 5, 10} {
		atStackDepth(depth, func() {
			t0 := time.Now()
			u = fmm.EvaluateDist(rp.c, rp.stokes, srcPos, srcQ, trg)
			durs = append(durs, time.Since(t0).Seconds())
		})
	}
	rp.rec.Add(rp.rec.open(), name, start, start+median(durs))
	return u
}

// atStackDepth calls f below depth extra frames of about 270 bytes each.
//
//go:noinline
func atStackDepth(depth int, f func()) {
	var pad [256]byte
	pad[depth%256] = 1
	if depth > 0 {
		atStackDepth(depth-1, f)
	} else {
		f()
	}
	padSink = pad[(depth+1)%256]
}

var padSink byte // keeps atStackDepth's frame from being optimised away

// replay performs the calls of Simulation.Step on the simulation's current
// state, in Step's order, through public functions only. Candidate cells
// are copies; the simulation's cells, density and counters are not touched.
// (Gravity and the spectral filter are not replayed: no workload sets them.)
func (rp *replayer) replay(sim *core.Simulation, step int) replayOut {
	rec, c, cfg := rp.rec, rp.c, sim.Cfg
	out := replayOut{step: step}
	stopRoot := rec.Begin(fmt.Sprintf("replay.step%d", step))
	root := rec.open()

	cells := sim.Cells
	n := len(cells)
	npts := cells[0].Grid.NumPoints()

	stop := rec.Begin("core.forces")
	geos := make([]*rbc.Geometry, n)
	forces := make([][3][]float64, n)
	var srcPos [][3]float64
	var srcQ []float64
	for i, cell := range cells {
		s := rec.Begin("rbc.geometry")
		geos[i] = cell.ComputeGeometry()
		s()
		s = rec.Begin("rbc.forces")
		forces[i] = cell.BendingForce(cfg.KappaB, geos[i])
		for d := 0; d < 3; d++ {
			for k := range forces[i][d] {
				forces[i][d][k] += cfg.Gravity[d]
			}
		}
		s()
		s = rec.Begin("rbc.quadweights")
		w := cell.QuadWeights(geos[i])
		s()
		srcPos = append(srcPos, cell.Points()...)
		for k := 0; k < npts; k++ {
			srcQ = append(srcQ, forces[i][0][k]*w[k], forces[i][1][k]*w[k], forces[i][2][k]*w[k])
		}
	}
	stop()
	nsrc := float64(len(srcPos))

	var uGamma []float64
	if sim.Surf != nil {
		surf := sim.Surf
		stop = rec.Begin("core.boundary")
		plo, phi := surf.F.OwnerRange(c.Size(), c.Rank())
		own := surf.Pts[plo*surf.NQ : phi*surf.NQ]
		out.wallNodes = len(own)
		nwall := float64(len(own))

		ufr := rp.freeSpace("fmm.cells2wall", srcPos, srcQ, own)
		rhs := make([]float64, len(sim.G))
		for i := range rhs {
			rhs[i] = sim.G[i] - ufr[i]
		}
		phi0 := sim.ExportPhi(c)

		rp.far.name, rp.far.n = "fmm.wall2wall", 0
		s := rec.Begin("bie.solve")
		dens, gm := bie.Solve(c, rp.op, rhs, phi0, cfg.GMRESTol, cfg.GMRESMax)
		s()
		out.gmresIters = gm.Iterations
		matvecs := float64(rp.far.n)

		dEps := 0.0
		for pid := range surf.F.Patches {
			dEps = math.Max(dEps, surf.P.NearFactor*surf.LMax[pid])
		}
		s = rec.Begin("forest.closest")
		cls := surf.F.ClosestPoints(c, srcPos, dEps)
		s()
		rp.far.name = "fmm.wall2cells"
		s = rec.Begin("bie.evalvelocity")
		uGamma = rp.op.EvalVelocity(c, dens, srcPos, cls)
		s()
		stop()

		out.targets = len(srcPos)
		out.nearTargets = countNear(cls)
		out.fmmPairs += nsrc*nwall + matvecs*nwall*nwall + nwall*nsrc
	}

	stop = rec.Begin("core.intercell")
	uCells := rp.freeSpace("fmm.cells2cells", srcPos, srcQ, srcPos)
	out.fmmPairs += nsrc * nsrc
	for i, cell := range cells {
		s := rec.Begin("rbc.selfvel")
		self := cell.SmoothSelfVelocity(geos[i], cfg.Mu, forces[i])
		s()
		for k := 0; k < npts; k++ {
			for d := 0; d < 3; d++ {
				uCells[(i*npts+k)*3+d] -= self[d][k]
			}
		}
	}
	stop()

	stop = rec.Begin("core.implicit")
	cands := make([]*rbc.Cell, n)
	for i, cell := range cells {
		var b [3][]float64
		for d := 0; d < 3; d++ {
			b[d] = make([]float64, npts)
		}
		for k := 0; k < npts; k++ {
			var bg [3]float64
			if cfg.Background != nil {
				bg = cfg.Background([3]float64{cell.X[0][k], cell.X[1][k], cell.X[2][k]})
			}
			for d := 0; d < 3; d++ {
				v := uCells[(i*npts+k)*3+d] + bg[d]
				if uGamma != nil {
					v += uGamma[(i*npts+k)*3+d]
				}
				b[d][k] = v
			}
		}
		var fext [3][]float64
		if cfg.Gravity != ([3]float64{}) {
			for d := 0; d < 3; d++ {
				fext[d] = make([]float64, npts)
				for k := range fext[d] {
					fext[d][k] = cfg.Gravity[d]
				}
			}
		}
		cands[i] = cell.Copy()
		s := rec.Begin("rbc.implicit")
		cands[i].ImplicitStep(rp.sq, rbc.ImplicitParams{Dt: cfg.Dt, Mu: cfg.Mu, KappaB: cfg.KappaB}, b, fext)
		s()
	}
	stop()

	if cfg.CollisionOn {
		stop = rec.Begin("core.collision")
		byID := map[int]*collision.Mesh{}
		localIDs := map[int]bool{}
		var meshes []*collision.Mesh
		var before [][][3]float64
		for i, cell := range cells {
			id := sim.CellIDOffset + i
			s := rec.Begin("collision.mesh")
			m := collision.MeshFromCell(id, cell)
			collision.SyncMeshFromCell(m, cell, cands[i])
			s()
			byID[id], localIDs[id] = m, true
			meshes = append(meshes, m)
			before = append(before, append([][3]float64(nil), m.VNext...))
		}
		reg := append([]*collision.Mesh{}, meshes...)
		for _, pm := range rp.patchMeshes {
			byID[pm.ID] = pm
			reg = append(reg, pm)
		}
		s := rec.Begin("collision.candidates")
		pairs := collision.CandidatePairs(c, reg, cfg.MinSep)
		s()
		out.pairs = len(pairs)
		s = rec.Begin("collision.resolve")
		out.contacts, _ = collision.Resolve(c, pairs, byID, localIDs, collision.ResolveParams{
			MinSep: cfg.MinSep, Mobility: cfg.Dt / cfg.Mu, MaxNCP: 7})
		s()
		for i, m := range meshes {
			collision.ApplyMeshDisplacement(m, before[i], cands[i])
		}
		stop()
	}

	stopRoot()
	out.byName, out.callsS = under(rec.spans, root)
	return out
}

func countNear(cls []forest.Closest) int {
	n := 0
	for _, cl := range cls {
		if cl.PatchID >= 0 {
			n++
		}
	}
	return n
}
