// Package rbcflow is a Go reproduction of "Scalable Simulation of Realistic
// Volume Fraction Red Blood Cell Flows through Vascular Networks"
// (Lu, Morse, Rahimian, Stadler, Zorin — SC '19): a boundary-integral
// platform for simulating deformable red blood cells in Stokes flow through
// rigid vascular geometries, with constraint-based collision handling and a
// distributed (rank-based) execution model.
//
// The public API is what the examples/ programs and a first-time reader
// need — geometry builders, the simulation loop, and the scenario registry's
// one-call path; the cmd/ drivers use the internal packages directly:
//
//	surf := rbcflow.TorusVessel(...)            // single-channel vessels
//	net := rbcflow.YBifurcation(...)            // branching vascular networks
//	flow, _ := rbcflow.SolveNetworkFlow(net, mu)
//	world := rbcflow.Run(ranks, machine, func(c *rbcflow.Comm) {
//	    for i := 0; i < steps; i++ { sim.Step(c) }
//	})
//
// See README.md for a quickstart and DESIGN.md for the system inventory.
package rbcflow

import (
	"rbcflow/internal/bie"
	"rbcflow/internal/core"
	"rbcflow/internal/forest"
	"rbcflow/internal/network"
	"rbcflow/internal/par"
	"rbcflow/internal/rbc"
	"rbcflow/internal/scenario"
	"rbcflow/internal/telemetry"
	"rbcflow/internal/vessel"
)

// Re-exported fundamental types.
type (
	// Comm is a rank's communicator handle (the MPI substitute).
	Comm = par.Comm
	// World holds the virtual-time ledger of a distributed run.
	World = par.World
	// Machine models the cluster node type (SKX/KNL).
	Machine = par.Machine
	// Config configures a simulation (see core.Config).
	Config = core.Config
	// Simulation is the time-stepping state.
	Simulation = core.Simulation
	// StepStats summarizes one time step.
	StepStats = core.StepStats
	// Cell is one red blood cell surface.
	Cell = rbc.Cell
	// Surface is a discretized vessel boundary.
	Surface = bie.Surface
	// BIEParams are the boundary-solver discretization parameters.
	BIEParams = bie.Params
	// FMMConfig are the fast-summation accuracy knobs.
	FMMConfig = bie.FMMConfig
	// FillParams configures the RBC filling algorithm.
	FillParams = vessel.FillParams

	// Network is a branching vascular graph (junction nodes + radius-tagged
	// centerline segments).
	Network = network.Network
	// NetworkFlow is the reduced-order Poiseuille/Kirchhoff solution.
	NetworkFlow = network.FlowSolution
	// NetworkGeometry is the swept-tube surface realization of a network.
	NetworkGeometry = network.Geometry
	// TubeParams configures the swept-tube generator.
	TubeParams = network.TubeParams
	// YParams configures the Y-bifurcation builder.
	YParams = network.YParams
	// HaematocritParams configures the plasma-skimming split rule.
	HaematocritParams = network.HaematocritParams
	// SeedParams configures haematocrit-driven cell seeding.
	SeedParams = network.SeedParams

	// ScenarioParams are the JSON-configurable scenario knobs.
	ScenarioParams = scenario.Params
	// ScenarioBundle is a built scenario: geometry, cells, BCs, Config.
	ScenarioBundle = scenario.Bundle
	// RunOptions configures a checkpointed scenario execution.
	RunOptions = scenario.RunOptions
	// RunOutcome summarizes a checkpointed scenario execution.
	RunOutcome = scenario.RunOutcome
	// TelemetryRegistry is the process-wide metrics sink (counters, gauges,
	// histograms, phase spans); a nil registry disables all recording at
	// negligible cost. Attach one via Config.Telemetry / RunOptions.Telemetry.
	TelemetryRegistry = telemetry.Registry

	// OperatorOption configures NewWallOperator.
	OperatorOption = bie.Option
	// CappedChannel is an open channel with flat edge-graded terminal caps
	// (see vessel.CappedTubeChannel).
	CappedChannel = vessel.CappedChannel
)

// NewWallOperator builds the boundary operator for a surface with the
// functional-option configuration (FMM accuracy, precompute workers, a
// prebuilt plan, or alternative backends). Collective.
func NewWallOperator(c *Comm, s *Surface, opts ...OperatorOption) *bie.Solver {
	return bie.NewWallOperator(c, s, opts...)
}

// Wall-operator options.
func WithOperatorFMM(fc FMMConfig) OperatorOption       { return bie.WithFMM(fc) }
func WithTelemetry(r *TelemetryRegistry) OperatorOption { return bie.WithTelemetry(r) }

// Run executes an SPMD body on p ranks with the given machine model and
// returns the world ledger (virtual time, per-category breakdown).
func Run(p int, m Machine, body func(c *Comm)) *World { return par.Run(p, m, body) }

// SKX and KNL are the two Stampede2-like machine models of the paper.
func SKX() Machine { return par.SKX() }
func KNL() Machine { return par.KNL() }

// NewSimulation builds a simulation from a global cell list and an optional
// vessel surface with boundary condition g (nil = no-slip).
func NewSimulation(c *Comm, cfg Config, cells []*Cell, surf *Surface, g []float64) *Simulation {
	return core.New(c, cfg, cells, surf, g)
}

// NewBiconcaveCell returns the standard biconcave RBC rest shape.
func NewBiconcaveCell(order int, radius float64, center [3]float64) *Cell {
	return rbc.NewBiconcaveCell(order, radius, center, nil)
}

// TorusVessel builds a torus channel surface (major radius R, tube radius
// r) refined to the given level.
func TorusVessel(level int, R, r float64, prm BIEParams) *Surface {
	f := forest.NewUniform(vessel.TorusRoots(8, 6, 4, R, r), level)
	return bie.NewSurface(f, prm)
}

// TrefoilVessel builds the complex knotted channel standing in for the
// Fig. 1 vascular network.
func TrefoilVessel(level int, scale, r float64, prm BIEParams) *Surface {
	f := forest.NewUniform(vessel.TrefoilRoots(8, 12, 4, scale, r), level)
	return bie.NewSurface(f, prm)
}

// CapsuleVessel builds the sedimentation container of Fig. 7.
func CapsuleVessel(level int, radius float64, axes [3]float64, prm BIEParams) *Surface {
	f := forest.NewUniform(vessel.CapsuleRoots(8, radius, axes), level)
	return bie.NewSurface(f, prm)
}

// CappedTubeVessel builds an open straight tube of radius r and length L
// closed by flat caps with gradeLevels dyadic rim-panel levels
// (gradeLevels < 0 = the ungraded seed-era caps), refined to the given
// level. The returned channel synthesizes its flux-matched Poiseuille
// boundary condition via CappedChannel.Inflow.
func CappedTubeVessel(level int, r, L float64, gradeLevels int, prm BIEParams) (*Surface, *CappedChannel) {
	cc := vessel.CappedTubeChannel(8, 4, r, L, 2.5, gradeLevels, network.DefaultGradeRatio)
	return bie.NewSurface(forest.NewUniform(cc.Roots, level), prm), cc
}

// Fill populates a vessel with nearly-touching cells (paper §5.1).
func Fill(s *Surface, prm FillParams) []*Cell { return vessel.Fill(s, prm) }

// VolumeFraction returns cell volume / vessel volume (paper §5.4).
func VolumeFraction(s *Surface, cells []*Cell) float64 { return vessel.VolumeFraction(s, cells) }

// VesselVolume returns the enclosed volume of a vessel surface.
func VesselVolume(s *Surface) float64 { return vessel.Volume(s) }

// WallInflow builds the tangential driving boundary condition on a torus
// channel window (zero net flux).
func WallInflow(s *Surface, th0, th1, speed float64) []float64 {
	return vessel.WallInflow(s, th0, th1, speed)
}

// DefaultBIEParams returns the calibrated boundary-solver parameters.
func DefaultBIEParams() BIEParams { return bie.DefaultParams() }

// YBifurcation builds the canonical diverging bifurcation network.
func YBifurcation(p YParams) *Network { return network.YBifurcation(p) }

// SolveNetworkFlow runs the reduced-order flow model: Poiseuille impedance
// per segment, Kirchhoff conservation at junctions, pressure/flow boundary
// conditions at terminals.
func SolveNetworkFlow(n *Network, mu float64) (*NetworkFlow, error) {
	return network.SolveFlow(n, mu)
}

// NetworkVessel sweeps the network into a watertight patch surface
// (rotation-minimizing frames along each segment, hemispherical junction
// caps, flat terminal caps) refined to the given level, feeding the standard
// forest/bie pipeline. Returns the surface and the geometry (needed for the
// boundary condition).
func NetworkVessel(n *Network, level int, tube TubeParams, prm BIEParams) (*Surface, *NetworkGeometry, error) {
	g, err := network.BuildGeometry(n, tube)
	if err != nil {
		return nil, nil, err
	}
	return g.Surface(level, prm), g, nil
}

// NetworkInflow synthesizes the velocity boundary condition on a network
// surface from a reduced-order flow solution: parabolic profiles on the
// inlet/outlet caps with fluxes matching the solved terminal flows, no-slip
// elsewhere.
func NetworkInflow(s *Surface, g *NetworkGeometry, f *NetworkFlow) []float64 {
	return g.Inflow(s, f)
}

// NetworkHaematocrit propagates haematocrit from the inflow terminals with
// a plasma-skimming split at bifurcations; returns per-segment values.
func NetworkHaematocrit(n *Network, f *NetworkFlow, prm HaematocritParams) []float64 {
	return network.SplitHaematocrit(n, f, prm)
}

// SeedNetworkCells fills each segment with cells at its target haematocrit,
// validating placements against the blended wall field by default.
func SeedNetworkCells(n *Network, H []float64, prm SeedParams) []*Cell {
	return network.SeedCells(n, H, prm)
}

// Scenarios lists the registered scenario names.
func Scenarios() []string { return scenario.Names() }

// BuildScenario builds a named scenario's geometry, cell population,
// boundary data, and step Config in one call.
func BuildScenario(name string, p ScenarioParams) (*ScenarioBundle, error) {
	return scenario.Build(name, p)
}

// ExecuteScenario runs a bundle with checkpoint/restart, VTK output, and
// CSV observables (see scenario.Execute).
func ExecuteScenario(b *ScenarioBundle, opt RunOptions) (*RunOutcome, error) {
	return scenario.Execute(b, opt)
}

// NewTelemetryRegistry creates an empty metrics registry. Share one across
// the subsystems of a run (operator, stepper, scenario executor) to collect
// the full per-phase breakdown; see DESIGN.md, "Observability".
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }
