package bie

import (
	"math"

	"rbcflow/internal/fmm"
	"rbcflow/internal/forest"
	"rbcflow/internal/kernels"
	"rbcflow/internal/la"
	"rbcflow/internal/par"
	"rbcflow/internal/telemetry"
	"rbcflow/internal/trace"
)

// WallOperator is the composable wall-operator contract consumed by the
// time stepper: the Nyström operator application that GMRES inverts, and the
// two velocity-evaluation paths (off-surface cell points, off-node
// on-surface verification points). All three are collective — every rank of
// the communicator must call them in the same order. Solver is the standard
// implementation; Solve inverts any implementation.
type WallOperator interface {
	// Surface returns the discretized boundary the operator acts on.
	Surface() *Surface
	// Apply computes (1/2 I + D + N)ϕ for the rank-local density segment.
	Apply(c *par.Comm, phiLocal []float64) []float64
	// EvalVelocity computes u^Γ = Dϕ at arbitrary rank-local targets with
	// near-singular treatment for targets whose closest-point data marks
	// them inside a near zone.
	EvalVelocity(c *par.Comm, phiLocal []float64, targets [][3]float64, cls []forest.Closest) []float64
	// OnSurfaceVelocity evaluates the interior velocity limit at an
	// arbitrary on-surface point of patch pid.
	OnSurfaceVelocity(c *par.Comm, phiLocal []float64, pid int, uu, vv float64) [3]float64
	// Precondition writes M⁻¹v into dst for the rank-local segment v, M⁻¹ an
	// approximate inverse of Apply's operator (the identity is a valid one).
	// Solve applies it on the right, so its stopping test is the true
	// residual whatever M⁻¹ is.
	Precondition(c *par.Comm, dst, v []float64)
}

// FarField is the smooth-summation backend: it evaluates the coarse
// double-layer sum of all sources at the rank-local targets. Implementations
// must be collective and safe for concurrent use by independent worlds. A
// backend may carry per-operator state (see Rigid), so every operator gets
// a backend instance of its own: never hand one instance to two
// NewWallOperator calls.
type FarField interface {
	Evaluate(c *par.Comm, srcPos [][3]float64, srcQ []float64, targets [][3]float64) []float64
	// Rigid declares the sum that recurs on a wall that does not move: from
	// the wall's nodes pts with unit normals nrm, this rank supplying and
	// receiving pts[lo:hi], with nothing but the strengths changing between
	// calls. NewWallOperator calls it once, collectively. The promise is
	// the caller's — pts and nrm are never written again — and binds the
	// backend to nothing: a backend may precompute whatever depends on
	// geometry alone and use it when Evaluate is handed exactly pts[lo:hi]
	// as both sources and targets, or ignore the call.
	Rigid(c *par.Comm, pts, nrm [][3]float64, lo, hi int)
}

type fmmFarField struct {
	eval *fmm.Evaluator
	// wall is the stored wall→wall operator (nil until Rigid keeps one).
	wall *rigidWall
	// tel, when non-nil, receives the bie.wall.stored_kernel gauge.
	tel *telemetry.Registry
}

func (f *fmmFarField) Evaluate(c *par.Comm, srcPos [][3]float64, srcQ []float64, targets [][3]float64) []float64 {
	if w := f.wall; w != nil && w.owns(srcPos) && w.owns(targets) {
		return w.apply(c, srcQ, rigidWallBlock)
	}
	return fmm.EvaluateDist(c, f.eval, srcPos, srcQ, targets)
}

func (f *fmmFarField) Rigid(c *par.Comm, pts, nrm [][3]float64, lo, hi int) {
	// A rank without rows could not tell the wall's sum (no sources, no
	// targets) from any other empty call, and the two paths differ in their
	// collectives — so the operator is kept by every rank or by none.
	rows := []float64{float64(hi - lo)}
	c.AllreduceMin(rows)
	if rows[0] > 0 && rigidWallFits(len(pts)) {
		f.wall = newRigidWall(pts, nrm, lo, hi)
	}
	if f.tel != nil {
		kernel := storedKernelNone
		if f.wall != nil {
			kernel = rigidWallKernel()
		}
		f.tel.Gauge("bie.wall.stored_kernel").Set(float64(kernel))
	}
}

// FMMFarField is the default far-field backend: the kernel-independent FMM
// at the given accuracy configuration.
func FMMFarField(fc FMMConfig) FarField { return fmmFarFieldWith(fc, nil, nil) }

// fmmFarFieldWith builds the FMM backend with a telemetry registry and
// health monitor attached, so the per-pass FMM spans land next to the
// operator's own and the fmm.out guard catches a blow-up before it reaches
// the solve.
func fmmFarFieldWith(fc FMMConfig, tel *telemetry.Registry, health *trace.Health) FarField {
	return &fmmFarField{tel: tel, eval: fmm.NewEvaluator(fmm.Config{
		Kernel:      kernels.StokesDoubleTensor{},
		Order:       fc.Order,
		LeafSize:    fc.LeafSize,
		DirectBelow: fc.DirectBelow,
		Tel:         tel,
		Health:      health,
	})}
}

// DirectFarField is the exact O(N·M) summation backend — the verification
// reference and the right choice for small surfaces where tree overhead
// dominates. It differs from FMMFarField only in the sums that reach the
// evaluator (moving targets, cell sources, walls over rigidWallBudget): the
// wall→wall sum of a wall under the budget runs on the stored operator in
// both, and is exact in both.
func DirectFarField() FarField {
	return &fmmFarField{eval: fmm.NewEvaluator(fmm.Config{
		Kernel:      kernels.StokesDoubleTensor{},
		DirectBelow: 1 << 62,
	})}
}

// Options configures NewWallOperator. The zero value is default FMM
// accuracy, a sequential rank-local precompute, and the dense plan near
// field.
type Options struct {
	// FMM configures the default far-field backend (ignored when Far set).
	// It governs the sums the backend hands to the FMM evaluator — wall→cell
	// velocities, and the wall→wall sum of a wall over rigidWallBudget. Under
	// the budget the wall→wall sum is the stored operator: exact
	// whatever these settings say.
	FMM FMMConfig
	// Workers is the precompute worker count for the rank-local plan build
	// when no shared Plan is supplied; <= 0 means sequential. Production
	// drivers share a plan built with BuildQuadPlan/PlanFor instead, which
	// default to GOMAXPROCS.
	Workers int
	// Plan is a prebuilt full-surface correction plan to consume (shared
	// across ranks, sweep points, and processes). Must be Compatible with
	// the surface; nil builds a rank-local partial plan instead.
	Plan *QuadPlan
	// Far overrides the far-field backend (nil = FMMFarField(FMM)).
	Far FarField
	// Tel, when non-nil, receives the operator's spans and solve statistics
	// (bie.matvec with its far/near split, bie.solve, bie.gmres.*) plus the
	// FMM per-pass spans of the default far-field backend. Nil costs nothing
	// on the hot path.
	Tel *telemetry.Registry
	// Health, when non-nil, attaches the numerical-health monitor: the
	// operator guards its matvec output and the package-level Solve guards
	// rhs/solution and feeds the GMRES stall/divergence detectors. Must be
	// the SAME monitor on every rank of the world (trips are agreed
	// collectively at the step boundary).
	Health *trace.Health
}

// Option mutates Options (the functional-option constructor style).
type Option func(*Options)

// WithMode accepts the one operator scheme and panics on any other value (a
// configuration error, like an incompatible plan).
func WithMode(m Mode) Option {
	if m != ModeLocal {
		panic("bie: WithMode: ModeLocal is the only operator mode")
	}
	return func(*Options) {}
}

// WithFMM sets the far-field accuracy knobs of the default backend.
func WithFMM(fc FMMConfig) Option { return func(o *Options) { o.FMM = fc } }

// WithWorkers sets the precompute worker count (see Options.Workers).
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithPlan supplies a prebuilt correction plan; nil is a no-op.
func WithPlan(p *QuadPlan) Option { return func(o *Options) { o.Plan = p } }

// WithFarField overrides the far-field backend.
func WithFarField(f FarField) Option { return func(o *Options) { o.Far = f } }

// WithTelemetry attaches a metrics registry to the operator (see Options.Tel).
func WithTelemetry(r *telemetry.Registry) Option { return func(o *Options) { o.Tel = r } }

// WithHealth attaches the numerical-health monitor (see Options.Health).
func WithHealth(h *trace.Health) Option { return func(o *Options) { o.Health = h } }

// NewWallOperator builds the wall operator for this rank's patch range.
// The near-field corrections come from a shared prebuilt plan when one is
// supplied, else from a rank-local precompute over the owned targets
// (possible because Γ is rigid; amortized over every time step). An
// incompatible plan panics: it is a configuration error, and silently
// rebuilding would hide a broken cache key. Collective.
func NewWallOperator(c *par.Comm, s *Surface, opts ...Option) *Solver {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	sv := &Solver{S: s, rank: c.Rank(), size: c.Size(), tel: o.Tel, health: o.Health}
	sv.patchLo, sv.patchHi = s.F.OwnerRange(sv.size, sv.rank)
	sv.nodeLo, sv.nodeHi = sv.patchLo*s.NQ, sv.patchHi*s.NQ
	sv.far = o.Far
	if sv.far == nil {
		sv.far = fmmFarFieldWith(o.FMM, o.Tel, o.Health)
	}
	sv.acPool.New = func() any { return newAdaptiveCtx(s.P.QuadNodes) }

	if o.Plan != nil {
		if err := o.Plan.Compatible(s); err != nil {
			panic("bie: NewWallOperator: " + err.Error())
		}
		sv.near = o.Plan
	} else {
		sv.near = buildPartialPlan(s, sv.nodeLo, sv.nodeHi, o.Workers)
	}
	sv.far.Rigid(c, s.Pts, s.Nrm, sv.nodeLo, sv.nodeHi)
	sv.buildCoarse(c)
	c.Barrier()
	return sv
}

// Solve runs distributed GMRES on op: (1/2 I + D + N)ϕ = rhs, where rhs is
// the rank-local right-hand side segment and phi0 the initial guess (may be
// nil). Returns the rank-local solution and the GMRES diagnostics. maxIter
// mirrors the paper's 30-iteration cap (§5.1). Collective.
func Solve(c *par.Comm, op WallOperator, rhs, phi0 []float64, tol float64, maxIter int) ([]float64, la.GMRESResult) {
	// Operators that carry a registry (notably *Solver) get the solve span
	// and GMRES statistics recorded: the bie.solve span, the
	// bie.gmres.{solves,iterations} counters, the bie.gmres.residual gauge
	// and one bie.gmres.iteration observation per Krylov iteration. The same
	// probe pattern picks up the health monitor: rhs is guarded before the
	// solve, the solution after, and the residual history feeds the
	// stall/divergence detectors.
	var tel *telemetry.Registry
	if t, ok := op.(interface{ TelemetryRegistry() *telemetry.Registry }); ok {
		tel = t.TelemetryRegistry()
	}
	var hm *trace.Health
	if t, ok := op.(interface{ Health() *trace.Health }); ok {
		hm = t.Health()
	}
	stop := telemetry.Start(tel, "bie.solve")
	defer stop()
	hm.CheckFinite("bie.solve.rhs", rhs)
	n := len(rhs)
	x := make([]float64, n)
	if phi0 != nil {
		copy(x, phi0)
	}
	dot := func(a, b []float64) float64 {
		v := []float64{la.Dot(a, b)}
		c.AllreduceSum(v)
		return v[0]
	}
	apply := func(dst, v []float64) {
		copy(dst, op.Apply(c, v))
	}
	precond := func(dst, v []float64) { op.Precondition(c, dst, v) }
	res, err := la.GMRES(apply, rhs, x, la.GMRESOptions{
		Tol: tol, MaxIters: maxIter, Restart: maxIter, Dot: dot, M: precond,
	})
	if err != nil {
		panic("bie: GMRES failure: " + err.Error())
	}
	if tel != nil {
		tel.Counter("bie.gmres.solves").Add(1)
		tel.Counter("bie.gmres.iterations").Add(int64(res.Iterations))
		// Registered by every solve, so a clean run reports it as 0.
		if unconverged := tel.Counter("bie.gmres.unconverged"); !res.Converged {
			unconverged.Inc()
		}
		if !math.IsNaN(res.Residual) && !math.IsInf(res.Residual, 0) {
			// Gauges flow into JSON artifacts (manifest, -telemetry-out,
			// flight bundles) and encoding/json rejects non-finite numbers;
			// the health monitor records the broken residual with full
			// fidelity in its own report instead.
			tel.Gauge("bie.gmres.residual").Set(res.Residual)
		}
		iter := tel.Histogram("bie.gmres.iteration")
		for _, s := range res.IterSec {
			iter.Observe(s)
		}
	}
	hm.ObserveSolve(res.Iterations, res.Residual, res.Converged, res.Breakdown, res.History)
	hm.CheckFinite("bie.solve.phi", x)
	return x, res
}
