package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Params is the JSON-configurable knob set shared by every scenario. Zero
// fields take scenario-appropriate defaults: Defaults fills the universal
// ones, and each builder fills its geometry-specific ones (e.g. the capsule
// scenario's lattice spacing differs from the torus's). Campaign sweeps
// mutate Params through Set, so every sweepable axis is a field here.
type Params struct {
	// Discretization.
	SphOrder int `json:"sph_order,omitempty"` // cell spherical-harmonic order
	Level    int `json:"level,omitempty"`     // surface refinement level

	// Cell population.
	MaxCells   int     `json:"max_cells,omitempty"`
	Spacing    float64 `json:"spacing,omitempty"`     // fill lattice spacing (0 = scenario rule)
	CellRadius float64 `json:"cell_radius,omitempty"` // nominal cell radius (0 = scenario rule)
	WallMargin float64 `json:"wall_margin,omitempty"`
	Seed       int64   `json:"seed,omitempty"`

	// Physics / stepping.
	Dt      float64 `json:"dt,omitempty"`
	Mu      float64 `json:"mu,omitempty"`
	KappaB  float64 `json:"kappa_b,omitempty"`
	MinSep  float64 `json:"min_sep,omitempty"`
	Gravity float64 `json:"gravity,omitempty"` // downward body force (capsule)

	// Solver.
	GMRESMax int     `json:"gmres_max,omitempty"`
	GMRESTol float64 `json:"gmres_tol,omitempty"`

	// Network scenarios.
	Hct         float64 `json:"hct,omitempty"`    // inlet discharge haematocrit
	Gamma       float64 `json:"gamma,omitempty"`  // plasma-skimming exponent
	Inflow      float64 `json:"inflow,omitempty"` // inlet volumetric flow
	Depth       int     `json:"depth,omitempty"`  // binary-tree depth
	Rows        int     `json:"rows,omitempty"`   // honeycomb rows
	Cols        int     `json:"cols,omitempty"`   // honeycomb cols
	NetworkPath string  `json:"network_path,omitempty"`
	// JunctionBlend is the smooth-min blend width of the blended junction
	// surfaces in units of the smallest segment radius (0 = model default).
	JunctionBlend float64 `json:"junction_blend,omitempty"`
}

// Defaults fills the universal zero fields; scenario builders fill the rest.
func (p *Params) Defaults() {
	if p.SphOrder == 0 {
		p.SphOrder = 4
	}
	if p.Mu == 0 {
		p.Mu = 1
	}
	if p.KappaB == 0 {
		p.KappaB = 0.05
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.GMRESTol == 0 {
		p.GMRESTol = 1e-3
	}
	if p.Hct == 0 {
		p.Hct = 0.12
	}
	if p.Gamma == 0 {
		p.Gamma = 1.4
	}
	if p.Inflow == 0 {
		p.Inflow = 2.0
	}
	if p.Depth == 0 {
		p.Depth = 2
	}
	if p.Rows == 0 {
		p.Rows = 1
	}
	if p.Cols == 0 {
		p.Cols = 2
	}
}

// SweepKeys are the axis names Set accepts, in canonical order.
func SweepKeys() []string {
	return []string{
		"cell_radius", "cols", "depth", "dt", "gamma",
		"gravity", "hct", "inflow", "junction_blend", "kappa_b", "level",
		"max_cells", "min_sep", "rows", "seed", "spacing", "sph_order",
	}
}

// Set applies one sweep-axis value by key name (the JSON tag). Integer
// fields round the value; a value outside the int range is a *ConfigError
// naming the key, not an overflow.
//
// Zero means "scenario default" throughout Params, so a sweep point of 0
// on a defaulted axis (gravity, hct, dt, ...) runs the scenario default,
// not a literal zero — sweeping "gravity=0,1.5" on the capsule therefore
// runs the default gravity twice. Axes where zero is a real value
// (level, rows, seed) are used verbatim.
func (p *Params) Set(key string, v float64) error {
	var n int
	switch key {
	case "sph_order", "level", "max_cells", "seed", "depth", "rows", "cols":
		r := math.Round(v)
		if !(r >= math.MinInt && r < -math.MinInt) {
			return &ConfigError{Field: key, Reason: fmt.Sprintf("%g is not an integer in the int range", v)}
		}
		n = int(r)
	}
	switch key {
	case "sph_order":
		p.SphOrder = n
	case "level":
		p.Level = n
	case "max_cells":
		p.MaxCells = n
	case "spacing":
		p.Spacing = v
	case "cell_radius":
		p.CellRadius = v
	case "min_sep":
		p.MinSep = v
	case "seed":
		p.Seed = int64(n)
	case "dt":
		p.Dt = v
	case "kappa_b":
		p.KappaB = v
	case "gravity":
		p.Gravity = v
	case "hct":
		p.Hct = v
	case "gamma":
		p.Gamma = v
	case "inflow":
		p.Inflow = v
	case "junction_blend":
		p.JunctionBlend = v
	case "depth":
		p.Depth = n
	case "rows":
		p.Rows = n
	case "cols":
		p.Cols = n
	default:
		return fmt.Errorf("scenario: unknown sweep key %q (known: %s)",
			key, strings.Join(SweepKeys(), ", "))
	}
	return nil
}

// Validate refuses what no scenario can run: a non-finite value in any
// field, or a negative value in any count or size field. Only gravity (its
// sign is the direction of the body force) and seed (any int64 is a seed)
// keep a sign. The *ConfigError names the field's JSON key.
func (p Params) Validate() error {
	for _, f := range []struct {
		key    string
		v      float64
		signed bool
	}{
		{"sph_order", float64(p.SphOrder), false}, {"level", float64(p.Level), false},
		{"max_cells", float64(p.MaxCells), false}, {"spacing", p.Spacing, false},
		{"cell_radius", p.CellRadius, false}, {"wall_margin", p.WallMargin, false},
		{"seed", float64(p.Seed), true}, {"dt", p.Dt, false}, {"mu", p.Mu, false},
		{"kappa_b", p.KappaB, false}, {"min_sep", p.MinSep, false}, {"gravity", p.Gravity, true},
		{"gmres_max", float64(p.GMRESMax), false}, {"gmres_tol", p.GMRESTol, false},
		{"hct", p.Hct, false}, {"gamma", p.Gamma, false}, {"inflow", p.Inflow, false},
		{"depth", float64(p.Depth), false}, {"rows", float64(p.Rows), false},
		{"cols", float64(p.Cols), false}, {"junction_blend", p.JunctionBlend, false},
	} {
		switch {
		case math.IsNaN(f.v) || math.IsInf(f.v, 0):
			return &ConfigError{Field: f.key, Reason: fmt.Sprintf("must be finite, got %g", f.v)}
		case f.v < 0 && !f.signed:
			return &ConfigError{Field: f.key, Reason: fmt.Sprintf("must be non-negative, got %g", f.v)}
		}
	}
	return nil
}

// Signature returns a deterministic compact rendering of the non-zero
// fields, used in run IDs and geometry-cache keys. Map-free and sorted, so
// equal Params always produce equal strings.
func (p Params) Signature() string {
	b, _ := json.Marshal(p) // struct fields marshal in declaration order
	var m map[string]any
	_ = json.Unmarshal(b, &m)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, m[k]))
	}
	return strings.Join(parts, ",")
}
