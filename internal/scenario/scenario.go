// Package scenario is the workload layer of the system: a registry of
// named, JSON-configurable simulation scenarios (single-channel vessels,
// the sedimentation capsule, free-space shear, and the vascular-network
// family), a checkpointed run executor, a campaign runner that sweeps
// parameter grids across a bounded worker pool, and the VTK/CSV output
// layer. Every cmd/ driver builds its geometry and cell population through
// this registry, so scenario setup lives in exactly one place.
package scenario

import (
	"fmt"
	"sort"
	"sync"

	"rbcflow/internal/bie"
	"rbcflow/internal/core"
	"rbcflow/internal/network"
	"rbcflow/internal/rbc"
	"rbcflow/internal/telemetry"
	"rbcflow/internal/vessel"
)

// Geom is the shareable, read-only geometry stage of a scenario: sweep
// points whose GeometryKey matches reuse one Geom (the expensive surface
// discretization) and differ only in their cell population and stepping
// parameters.
type Geom struct {
	Surf *bie.Surface
	// Network-family scenarios also carry the graph, its swept-tube
	// realization, and the reduced-order flow solution.
	Net     *network.Network
	NetGeom *network.Geometry
	Flow    *network.FlowSolution
	// Capped open-channel scenarios (capped-torus) carry the channel's cap
	// metadata for boundary-condition synthesis.
	Capped *vessel.CappedChannel

	// The wall-operator plan rides with the geometry it was built for, so
	// sweep points sharing a Geom build (or disk-load) it exactly once.
	planOnce sync.Once
	plan     *bie.QuadPlan
	planSrc  bie.PlanSource
	planErr  error
}

// WallPlan returns the geometry's near-field correction plan, materializing
// it on first call through bie.PlanFor (disk cache under cacheDir when
// non-empty, parallel build otherwise) and serving the in-memory copy to
// every later caller. The returned source records how THIS call was
// satisfied: "built"/"disk" for the one materializing call, "memory" for
// the rest — deterministic counts even under concurrent campaign workers.
// reg (nil ok) receives the materializing call's cache counters and build
// span; only the caller that triggers the materialization records them.
func (g *Geom) WallPlan(workers int, cacheDir string, reg *telemetry.Registry) (*bie.QuadPlan, bie.PlanSource, error) {
	if g.Surf == nil {
		return nil, "", fmt.Errorf("scenario: geometry has no wall surface to plan for")
	}
	materialized := false
	g.planOnce.Do(func() {
		materialized = true
		g.plan, g.planSrc, g.planErr = bie.PlanFor(g.Surf, workers, cacheDir, reg)
	})
	if g.planErr != nil {
		return nil, "", g.planErr
	}
	if materialized {
		return g.plan, g.planSrc, nil
	}
	return g.plan, bie.PlanShared, nil
}

// Bundle is everything a driver needs to run one scenario instance.
type Bundle struct {
	Scenario string
	Params   Params

	Surf  *bie.Surface // nil for free-space scenarios
	Geom  *Geom
	Cells []*rbc.Cell
	G     []float64 // boundary condition at all coarse nodes (3 per node)
	// Haematocrit is the per-segment target haematocrit (network family).
	Haematocrit []float64

	Config core.Config
}

// Scenario is one registered workload. BuildGeometry and Populate split the
// construction so a campaign can share geometry across sweep points.
type Scenario struct {
	Name        string
	Description string

	// Steppable scenarios produce a cell population and can be time-stepped;
	// non-steppable ones (e.g. the cube-sphere verification geometry) only
	// carry a surface for boundary-solver studies.
	Steppable bool

	// BuildGeometry constructs the geometry stage. The result must be
	// treated as read-only: it may be shared by concurrent runs.
	BuildGeometry func(p Params) (*Geom, error)

	// Populate seeds cells, boundary data, and the step Config for one
	// sweep point on an existing geometry.
	Populate func(g *Geom, p Params) (*Bundle, error)

	// GeometryKey distinguishes sweep points that need distinct geometry;
	// points with equal keys share one BuildGeometry result.
	GeometryKey func(p Params) string
}

// Build runs both stages for a single (non-campaign) use.
func (s *Scenario) Build(p Params) (*Bundle, error) {
	p.Defaults()
	g, err := s.BuildGeometry(p)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: geometry: %w", s.Name, err)
	}
	b, err := s.populate(g, p)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: populate: %w", s.Name, err)
	}
	return b, nil
}

// populate runs the Populate stage on an existing (possibly shared) geometry
// and completes the bundle's identity fields. p must already be defaulted.
func (s *Scenario) populate(g *Geom, p Params) (*Bundle, error) {
	b, err := s.Populate(g, p)
	if err != nil {
		return nil, err
	}
	b.Scenario = s.Name
	b.Params = p
	b.Geom = g
	if b.Surf == nil {
		b.Surf = g.Surf
	}
	return b, nil
}

var (
	regMu    sync.Mutex
	registry = map[string]*Scenario{}
)

// Register adds a scenario; duplicate names panic (registration is an
// init-time programming act, not a runtime input).
func Register(s *Scenario) {
	regMu.Lock()
	defer regMu.Unlock()
	if s.Name == "" || s.BuildGeometry == nil || s.Populate == nil {
		panic("scenario: Register needs Name, BuildGeometry and Populate")
	}
	if _, dup := registry[s.Name]; dup {
		panic("scenario: duplicate registration of " + s.Name)
	}
	if s.GeometryKey == nil {
		s.GeometryKey = func(Params) string { return "" }
	}
	registry[s.Name] = s
}

// Get returns a registered scenario.
func Get(name string) (*Scenario, error) {
	regMu.Lock()
	defer regMu.Unlock()
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (registered: %v)", name, namesLocked())
	}
	return s, nil
}

// MustGet is Get for statically-known names.
func MustGet(name string) *Scenario {
	s, err := Get(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Build is the one-call path: look up a scenario and build a bundle.
func Build(name string, p Params) (*Bundle, error) {
	s, err := Get(name)
	if err != nil {
		return nil, err
	}
	return s.Build(p)
}

// Names returns all registered scenario names, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns the registered scenarios sorted by name.
func All() []*Scenario {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]*Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
