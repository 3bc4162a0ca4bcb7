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
}

// FarField is the smooth-summation backend: it evaluates the coarse (or, in
// the global mode, fine) double-layer sum of all sources at the rank-local
// targets. Implementations must be collective and safe for concurrent use
// by independent worlds.
type FarField interface {
	Name() string
	Evaluate(c *par.Comm, srcPos [][3]float64, srcQ []float64, targets [][3]float64) []float64
}

// NearField supplies the dense near-zone correction blocks of the local
// mode, indexed by global coarse node. QuadPlan is the standard
// implementation; alternatives can trade memory for recompute (or plug in
// experimental quadratures) without touching the solver. Blocks must be
// safe for concurrent calls: Apply reads it from every pool thread.
type NearField interface {
	Name() string
	Blocks(g int) []CorrBlock
}

type fmmFarField struct {
	name string
	eval *fmm.Evaluator
}

func (f *fmmFarField) Name() string { return f.name }

func (f *fmmFarField) Evaluate(c *par.Comm, srcPos [][3]float64, srcQ []float64, targets [][3]float64) []float64 {
	return fmm.EvaluateDist(c, f.eval, srcPos, srcQ, targets)
}

// FMMFarField is the default far-field backend: the kernel-independent FMM
// at the given accuracy configuration.
func FMMFarField(fc FMMConfig) FarField { return fmmFarFieldWith(fc, nil, nil) }

// fmmFarFieldWith builds the FMM backend with a telemetry registry and
// health monitor attached, so the per-pass FMM spans land next to the
// operator's own and the fmm.out guard catches a blow-up before it reaches
// the solve.
func fmmFarFieldWith(fc FMMConfig, tel *telemetry.Registry, health *trace.Health) FarField {
	return &fmmFarField{name: "fmm", eval: fmm.NewEvaluator(fmm.Config{
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
// dominates.
func DirectFarField() FarField {
	return &fmmFarField{name: "direct", eval: fmm.NewEvaluator(fmm.Config{
		Kernel:      kernels.StokesDoubleTensor{},
		DirectBelow: 1 << 62,
	})}
}

// Options configures NewWallOperator. The zero value is the local mode with
// default FMM accuracy, a sequential rank-local precompute, and the dense
// plan near field.
type Options struct {
	// Mode selects the operator scheme (ModeLocal default).
	Mode Mode
	// FMM configures the default far-field backend (ignored when Far set).
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
	// Near overrides the near-field backend (nil = Plan, or the rank-local
	// partial plan).
	Near NearField
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

// WithMode selects the operator mode.
func WithMode(m Mode) Option { return func(o *Options) { o.Mode = m } }

// WithFMM sets the far-field accuracy knobs of the default backend.
func WithFMM(fc FMMConfig) Option { return func(o *Options) { o.FMM = fc } }

// WithWorkers sets the precompute worker count (see Options.Workers).
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithPlan supplies a prebuilt correction plan; nil is a no-op.
func WithPlan(p *QuadPlan) Option { return func(o *Options) { o.Plan = p } }

// WithFarField overrides the far-field backend.
func WithFarField(f FarField) Option { return func(o *Options) { o.Far = f } }

// WithNearField overrides the near-field backend.
func WithNearField(n NearField) Option { return func(o *Options) { o.Near = n } }

// WithTelemetry attaches a metrics registry to the operator (see Options.Tel).
func WithTelemetry(r *telemetry.Registry) Option { return func(o *Options) { o.Tel = r } }

// WithHealth attaches the numerical-health monitor (see Options.Health).
func WithHealth(h *trace.Health) Option { return func(o *Options) { o.Health = h } }

// NewWallOperator builds the wall operator for this rank's patch range.
// In the local mode the near-field corrections come, in order of
// preference, from an explicit NearField backend, a shared prebuilt plan,
// or a rank-local precompute over the owned targets (possible because Γ is
// rigid; amortized over every time step). An incompatible plan panics: it
// is a configuration error, and silently rebuilding would hide a broken
// cache key. Collective.
func NewWallOperator(c *par.Comm, s *Surface, opts ...Option) *Solver {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	sv := &Solver{S: s, Mode: o.Mode, rank: c.Rank(), size: c.Size(), tel: o.Tel, health: o.Health}
	sv.patchLo, sv.patchHi = s.F.OwnerRange(sv.size, sv.rank)
	sv.nodeLo, sv.nodeHi = sv.patchLo*s.NQ, sv.patchHi*s.NQ
	sv.far = o.Far
	if sv.far == nil {
		sv.far = fmmFarFieldWith(o.FMM, o.Tel, o.Health)
	}
	sv.acPool.New = func() any { return newAdaptiveCtx(s.P.QuadNodes) }

	if o.Mode == ModeGlobal {
		// Only the global mode's extrapolation reads the fine grid and the
		// check points; the local mode's adaptive quadrature needs neither.
		s.EnsureFine()
		p := s.P.ExtrapOrder
		nOwned := sv.nodeHi - sv.nodeLo
		sv.checkPts = make([][3]float64, nOwned*(p+1))
		for k := 0; k < nOwned; k++ {
			g := sv.nodeLo + k
			cps := s.CheckPoints(s.Pts[g], s.Nrm[g], s.L[s.PatchOf(g)])
			copy(sv.checkPts[k*(p+1):(k+1)*(p+1)], cps)
		}
	}
	if o.Mode == ModeLocal {
		switch {
		case o.Near != nil:
			sv.near = o.Near
		case o.Plan != nil:
			if err := o.Plan.Compatible(s); err != nil {
				panic("bie: NewWallOperator: " + err.Error())
			}
			sv.near = o.Plan
		default:
			sv.near = buildPartialPlan(s, sv.nodeLo, sv.nodeHi, o.Workers)
		}
	}
	c.Barrier()
	return sv
}

// Solve runs distributed GMRES on op: (1/2 I + D + N)ϕ = rhs, where rhs is
// the rank-local right-hand side segment and phi0 the initial guess (may be
// nil). Returns the rank-local solution and the GMRES diagnostics. maxIter
// mirrors the paper's 30-iteration cap (§5.1). Collective.
func Solve(c *par.Comm, op WallOperator, rhs, phi0 []float64, tol float64, maxIter int) ([]float64, la.GMRESResult) {
	// Operators that carry a registry (notably *Solver) get the solve span
	// and GMRES statistics recorded no matter which entry point ran the
	// solve — the stepper calls this function directly. The same probe
	// pattern picks up the health monitor: rhs is guarded before the solve,
	// the solution after, and the residual history feeds the
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
	res, err := la.GMRES(apply, rhs, x, la.GMRESOptions{
		Tol: tol, MaxIters: maxIter, Restart: maxIter, Dot: dot,
	})
	if err != nil {
		panic("bie: GMRES failure: " + err.Error())
	}
	if tel != nil {
		tel.Counter("bie.gmres.solves").Add(1)
		tel.Counter("bie.gmres.iterations").Add(int64(res.Iterations))
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
