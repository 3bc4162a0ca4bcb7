package main

// metricDef declares one metric the harness prints. BENCHMARK.json carries
// the same list (TestManifestAgreesWithHarness keeps the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// End-to-end metrics: what a user of the system sees, measured on the
// untraced run. Every workload reports every one of them; what the "unit" of
// unit_s is on each workload is part of the workload's definition
// (README.md): one coupled time step on the three simulation workloads, one
// BIE-tier request on serve_mix.
//
// The bounds are the widest the acceptance contract allows. On a quiet day
// ten seeds of one commit spread by 3-6 % on the reference box, but the box
// is a share of a busy host: for minutes at a time its cores run a varying
// part of every second at about 0.6 of their speed (README.md, "The box
// itself is noisy"), which moved whole runs of one commit by 13-22 %.
var endToEnd = []metricDef{
	// Cold set-up: sims scenario.Build + Geom.WallPlan(GOMAXPROCS) into an
	// empty plan cache + first core.New; serve daemon start + warm-up request.
	{"setup_s", "s", "lower", 0.25},
	// Median wall time of one unit of work.
	{"unit_s", "s", "lower", 0.25},
	// Wall time of the whole measured phase with set-up done: sims the
	// ExecuteContext of all steps, serve both request phases back to back.
	{"run_s", "s", "lower", 0.25},
}

// Per-layer metrics, measured on the traced run. Names are module.metric;
// README.md maps each onto the end-to-end metric it should move. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	// core: one Step, by the phases StepStats.PhaseSec reports (median per step).
	{Name: "core.step.forces_s", Unit: "s", Better: "lower"},
	{Name: "core.step.boundary_s", Unit: "s", Better: "lower"},
	{Name: "core.step.intercell_s", Unit: "s", Better: "lower"},
	{Name: "core.step.implicit_s", Unit: "s", Better: "lower"},
	{Name: "core.step.collision_s", Unit: "s", Better: "lower"},
	{Name: "core.step.commit_s", Unit: "s", Better: "lower"},
	{Name: "core.step.unattributed_frac", Unit: "frac", Better: "lower"},
	{Name: "core.new_s", Unit: "s", Better: "lower"},
	{Name: "core.alloc_mb_per_step", Unit: "MB", Better: "lower"},
	{Name: "core.allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "core.vol_drift_max", Unit: "frac", Better: "lower"},

	// bie: plan (set-up) and the per-step boundary solve and wall->cell
	// evaluation (median per step over the replayed steps).
	{Name: "bie.plan.build_s", Unit: "s", Better: "lower"},
	{Name: "bie.plan.build_w1_s", Unit: "s", Better: "lower"},
	{Name: "bie.plan.par_eff", Unit: "frac", Better: "higher"},
	{Name: "bie.plan.save_s", Unit: "s", Better: "lower"},
	{Name: "bie.plan.load_s", Unit: "s", Better: "lower"},
	{Name: "bie.plan.bytes", Unit: "B", Better: "lower"},
	{Name: "bie.plan.nodes", Unit: "count", Better: "lower"},
	{Name: "bie.solve_s", Unit: "s", Better: "lower"},
	{Name: "bie.matvec_s", Unit: "s", Better: "lower"},
	{Name: "bie.matvec.far_s", Unit: "s", Better: "lower"},
	{Name: "bie.matvec.near_s", Unit: "s", Better: "lower"},
	{Name: "bie.gmres.iters_per_solve", Unit: "count", Better: "lower"},
	{Name: "bie.gmres.converged_frac", Unit: "frac", Better: "higher"},
	{Name: "bie.gmres.residual_max", Unit: "1", Better: "lower"},
	{Name: "bie.evalvelocity_s", Unit: "s", Better: "lower"},
	{Name: "bie.evalvelocity.targets", Unit: "count", Better: "lower"},
	{Name: "bie.evalvelocity.near_frac", Unit: "frac", Better: "lower"},

	{Name: "forest.closest_s", Unit: "s", Better: "lower"},

	// fmm: the two free-space evaluations of a step, call counts over the
	// traced run, and the tree passes (per step, from the registry).
	{Name: "fmm.cells2wall_s", Unit: "s", Better: "lower"},
	{Name: "fmm.cells2cells_s", Unit: "s", Better: "lower"},
	{Name: "fmm.direct_calls", Unit: "count", Better: "lower"},
	{Name: "fmm.tree_calls", Unit: "count", Better: "lower"},
	{Name: "fmm.pairs_per_step", Unit: "count", Better: "lower"},
	{Name: "fmm.tree.build_s", Unit: "s", Better: "lower"},
	{Name: "fmm.upward_s", Unit: "s", Better: "lower"},
	{Name: "fmm.downward_s", Unit: "s", Better: "lower"},
	{Name: "fmm.repeat_maxdiff", Unit: "1", Better: "lower"},

	{Name: "kernels.stokeslet_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "kernels.doublelayer_ns_per_pair", Unit: "ns", Better: "lower"},

	// rbc: per cell.
	{Name: "rbc.forces_s", Unit: "s", Better: "lower"},
	{Name: "rbc.implicit_s", Unit: "s", Better: "lower"},
	{Name: "rbc.selfvel_s", Unit: "s", Better: "lower"},

	{Name: "collision.mesh_s", Unit: "s", Better: "lower"},
	{Name: "collision.candidates_s", Unit: "s", Better: "lower"},
	{Name: "collision.pairs", Unit: "count", Better: "lower"},
	{Name: "collision.resolve_s", Unit: "s", Better: "lower"},
	{Name: "collision.contacts_per_step", Unit: "count", Better: "lower"},
	{Name: "collision.ncp_iters_per_step", Unit: "count", Better: "lower"},

	// par: the paper's cost categories (1-rank ledger) and the 4-virtual-rank run.
	{Name: "par.virt.COL_frac", Unit: "frac", Better: "lower"},
	{Name: "par.virt.BIE-solve_frac", Unit: "frac", Better: "lower"},
	{Name: "par.virt.BIE-FMM_frac", Unit: "frac", Better: "lower"},
	{Name: "par.virt.Other-FMM_frac", Unit: "frac", Better: "lower"},
	{Name: "par.virt.Other_frac", Unit: "frac", Better: "lower"},
	{Name: "par.step_virt_r4_s", Unit: "s", Better: "lower"},
	{Name: "par.strong_eff_r4", Unit: "frac", Better: "higher"},
	{Name: "par.comm_bytes_per_step_r4", Unit: "B", Better: "lower"},
	{Name: "par.phases_per_step_r4", Unit: "count", Better: "lower"},

	{Name: "scenario.build_s", Unit: "s", Better: "lower"},
	{Name: "scenario.execute_overhead_s", Unit: "s", Better: "lower"},
	{Name: "network.geometry_s", Unit: "s", Better: "lower"},
	{Name: "network.flow_s", Unit: "s", Better: "lower"},
	{Name: "vessel.fill_s", Unit: "s", Better: "lower"},

	{Name: "surrogate.solve_dense_s", Unit: "s", Better: "lower"},
	{Name: "surrogate.solve_sparse_s", Unit: "s", Better: "lower"},
	{Name: "surrogate.iters", Unit: "count", Better: "lower"},
	{Name: "surrogate.flow_imbalance", Unit: "1", Better: "lower"},

	// serve: client-side latencies per request class, the server's own
	// timing split, and the coalescing ledger.
	{Name: "serve.bie_req_s", Unit: "s", Better: "lower"},
	{Name: "serve.bie_burst_s", Unit: "s", Better: "lower"},
	{Name: "serve.sur_dense_req_s", Unit: "s", Better: "lower"},
	{Name: "serve.sur_sparse_req_s", Unit: "s", Better: "lower"},
	{Name: "serve.sur_dense_tail_s", Unit: "s", Better: "lower"},
	{Name: "serve.sur_sparse_tail_s", Unit: "s", Better: "lower"},
	{Name: "serve.queue_s", Unit: "s", Better: "lower"},
	{Name: "serve.run_s", Unit: "s", Better: "lower"},
	{Name: "serve.overhead_s", Unit: "s", Better: "lower"},
	{Name: "serve.plan_builds", Unit: "count", Better: "lower"},
	{Name: "serve.plan_reuses", Unit: "count", Better: "higher"},
	{Name: "serve.batches", Unit: "count", Better: "lower"},
	{Name: "serve.heap_growth_mb", Unit: "MB", Better: "lower"},

	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},

	// VmHWM of the traced process. Not an end-to-end metric: where the GC's
	// cycles fall moves it by more than 10 % between runs of one commit.
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
}

// workloadDef is one benchmark workload as BENCHMARK.json lists it.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"torus_dense", "31 cells in the walled torus (paper Figs. 4-6): near-singular wall-to-cell evaluation and closest-point search dominate the step"},
	{"ynet_wall", "8 cells in the 150-patch Y bifurcation: the rigid-wall GMRES and its direct far field dominate, and the cold plan build dominates set-up"},
	{"free_lattice", "216 cells in free-space shear, no wall: collision broad phase, per-cell implicit solve and the tree FMM; the boundary solver is bypassed"},
	{"serve_mix", "in-process daemon, closed loop, 2 clients: BIE-tier requests that share one plan, then dense- and sparse-path surrogate requests"},
}
