package scenario

import (
	"fmt"
	"math"

	"rbcflow/internal/bie"
	"rbcflow/internal/core"
	"rbcflow/internal/forest"
	"rbcflow/internal/network"
	"rbcflow/internal/patch"
	"rbcflow/internal/rbc"
	"rbcflow/internal/vessel"
)

// channelBIEParams are the calibrated boundary-solver parameters of the
// paper's channel-flow runs (§5.2).
func channelBIEParams() bie.Params {
	return bie.Params{QuadNodes: 7, NearFactor: 0.8}
}

// networkBIEParams are the lighter parameters used for swept-tube network
// surfaces (more patches, gentler near zone).
func networkBIEParams() bie.Params {
	return bie.Params{QuadNodes: 5, NearFactor: 0.6}
}

// fillSpacing is the §5.2 population rule: the lattice spacing contracts
// with the cube root of the target cell count so volume fraction stays
// roughly constant as problems grow.
func fillSpacing(p Params) float64 {
	if p.Spacing != 0 {
		return p.Spacing
	}
	return 1.3 / math.Cbrt(math.Max(1, float64(p.MaxCells)/8))
}

func channelConfig(p Params, spacing float64) core.Config {
	if p.Dt == 0 {
		p.Dt = 0.02
	}
	minSep := p.MinSep
	if minSep == 0 {
		minSep = spacing * 0.08
	}
	gmresMax := p.GMRESMax
	if gmresMax == 0 {
		gmresMax = 12
	}
	return core.Config{
		SphOrder: p.SphOrder, Mu: p.Mu, KappaB: p.KappaB, Dt: p.Dt, MinSep: minSep,
		CollisionOn: true,
		FMM:         bie.FMMConfig{Order: 3, LeafSize: 64, DirectBelow: 1 << 22},
		GMRESMax:    gmresMax, GMRESTol: p.GMRESTol,
	}
}

// populateChannel is the shared cell/BC stage of the torus and trefoil
// scenarios: lattice fill, tangential wall-conveyor inflow window.
func populateChannel(g *Geom, p Params) (*Bundle, error) {
	spacing := fillSpacing(p)
	radius := p.CellRadius
	if radius == 0 {
		radius = spacing * 0.27
	}
	margin := p.WallMargin
	if margin == 0 {
		margin = 0.12
	}
	maxCells := p.MaxCells
	if maxCells == 0 {
		maxCells = 8
	}
	cells := vessel.Fill(g.Surf, vessel.FillParams{
		SphOrder: p.SphOrder, Spacing: spacing, Radius: radius,
		WallMargin: margin, MaxCells: maxCells, Seed: p.Seed,
	})
	return &Bundle{
		Surf:   g.Surf,
		Cells:  cells,
		G:      vessel.WallInflow(g.Surf, 0, math.Pi/2, 2.0),
		Config: channelConfig(p, spacing),
	}, nil
}

func registerTorus() {
	Register(&Scenario{
		Name:        "torus",
		Description: "torus channel (R=3, r=1) with a tangential wall-conveyor inflow window — the paper's scaling workload (Figs. 4-6)",
		Steppable:   true,
		BuildGeometry: func(p Params) (*Geom, error) {
			f := forest.NewUniform(vessel.TorusRoots(8, 6, 4, 3, 1), p.Level)
			return &Geom{Surf: bie.NewSurface(f, channelBIEParams())}, nil
		},
		Populate: func(g *Geom, p Params) (*Bundle, error) {
			return populateChannel(g, p)
		},
		GeometryKey: func(p Params) string { return fmt.Sprintf("level=%d", p.Level) },
	})
}

func registerCappedTorus() {
	Register(&Scenario{
		Name: "capped-torus",
		Description: "open torus arc at the seed channel parameters (R=3, r=1, 3π/2 arc) with edge-graded flat caps " +
			"and a Poiseuille in/out flow — the capped-channel workload the CapGrading suite pins",
		Steppable: true,
		BuildGeometry: func(p Params) (*Geom, error) {
			cc := vessel.CappedTorusChannel(8, 6, 4, 3, 1, 3*math.Pi/2, network.DefaultGradeLevels)
			f := forest.NewUniform(cc.Roots, p.Level)
			return &Geom{Surf: bie.NewSurface(f, channelBIEParams()), Capped: cc}, nil
		},
		Populate: func(g *Geom, p Params) (*Bundle, error) {
			b, err := populateChannel(g, p)
			if err != nil {
				return nil, err
			}
			// Replace the closed-torus wall conveyor with the capped
			// channel's flux-matched Poiseuille caps.
			b.G = g.Capped.Inflow(g.Surf, p.Inflow)
			return b, nil
		},
		GeometryKey: func(p Params) string {
			return fmt.Sprintf("level=%d,grade=%d", p.Level, network.DefaultGradeLevels)
		},
	})
}

func registerTrefoil() {
	Register(&Scenario{
		Name:        "trefoil",
		Description: "knotted trefoil channel (scale=1, r=0.6) — the complex closed vasculature stand-in of Fig. 1",
		Steppable:   true,
		BuildGeometry: func(p Params) (*Geom, error) {
			f := forest.NewUniform(vessel.TrefoilRoots(8, 12, 4, 1, 0.6), p.Level)
			return &Geom{Surf: bie.NewSurface(f, channelBIEParams())}, nil
		},
		Populate: func(g *Geom, p Params) (*Bundle, error) {
			if p.CellRadius == 0 {
				p.CellRadius = 0.2 // narrower tube than the torus
			}
			if p.Spacing == 0 {
				p.Spacing = 0.8
			}
			return populateChannel(g, p)
		},
		GeometryKey: func(p Params) string { return fmt.Sprintf("level=%d", p.Level) },
	})
}

func registerCapsule() {
	Register(&Scenario{
		Name:        "capsule",
		Description: "sedimentation capsule (Fig. 7): cells settle under gravity in a closed ellipsoidal container",
		Steppable:   true,
		BuildGeometry: func(p Params) (*Geom, error) {
			f := forest.NewUniform(vessel.CapsuleRoots(8, 2.2, [3]float64{1, 1, 1.3}), p.Level)
			return &Geom{Surf: bie.NewSurface(f, channelBIEParams())}, nil
		},
		Populate: func(g *Geom, p Params) (*Bundle, error) {
			spacing := p.Spacing
			if spacing == 0 {
				spacing = 0.95
			}
			radius := p.CellRadius
			if radius == 0 {
				radius = 0.42
			}
			margin := p.WallMargin
			if margin == 0 {
				margin = 0.1
			}
			maxCells := p.MaxCells
			if maxCells == 0 {
				maxCells = 14
			}
			grav := p.Gravity
			if grav == 0 {
				grav = 1.5
			}
			dt := p.Dt
			if dt == 0 {
				dt = 0.03 // sedimentation uses a longer step than the channels
			}
			gmresMax := p.GMRESMax
			if gmresMax == 0 {
				gmresMax = 10
			}
			minSep := p.MinSep
			if minSep == 0 {
				minSep = 0.06
			}
			cells := vessel.Fill(g.Surf, vessel.FillParams{
				SphOrder: p.SphOrder, Spacing: spacing, Radius: radius,
				WallMargin: margin, MaxCells: maxCells, Seed: p.Seed,
			})
			return &Bundle{
				Surf:  g.Surf,
				Cells: cells,
				Config: core.Config{
					SphOrder: p.SphOrder, Mu: p.Mu, KappaB: p.KappaB, Dt: dt, MinSep: minSep,
					Gravity:     [3]float64{0, 0, -grav},
					CollisionOn: true,
					FMM:         bie.FMMConfig{Order: 3, LeafSize: 64, DirectBelow: 1 << 22},
					GMRESMax:    gmresMax, GMRESTol: p.GMRESTol,
				},
			}, nil
		},
		GeometryKey: func(p Params) string { return fmt.Sprintf("level=%d", p.Level) },
	})
}

func registerShear() {
	Register(&Scenario{
		Name:        "shear",
		Description: "two biconcave cells in free-space shear flow u=(z,0,0) — the Fig. 10/11 time-stepping verification workload",
		Steppable:   true,
		BuildGeometry: func(p Params) (*Geom, error) {
			return &Geom{}, nil // free space: no vessel surface
		},
		Populate: func(g *Geom, p Params) (*Bundle, error) {
			if p.Dt == 0 {
				p.Dt = 0.05
			}
			minSep := p.MinSep
			if minSep == 0 {
				minSep = 0.04
			}
			cells := []*rbc.Cell{
				rbc.NewBiconcaveCell(p.SphOrder, 1, [3]float64{-1.5, 0, 0.25}, nil),
				rbc.NewBiconcaveCell(p.SphOrder, 1, [3]float64{1.5, 0, -0.25}, nil),
			}
			return &Bundle{
				Cells: cells,
				Config: core.Config{
					SphOrder: p.SphOrder, Mu: p.Mu, KappaB: p.KappaB, Dt: p.Dt, MinSep: minSep,
					Background:  func(x [3]float64) [3]float64 { return [3]float64{x[2], 0, 0} },
					CollisionOn: true,
					FMM:         bie.FMMConfig{DirectBelow: 1 << 40},
				},
			}, nil
		},
	})
}

// CubeSphereRoots builds the 6-patch cubed-sphere used by the boundary
// solver verification study (Fig. 9).
func CubeSphereRoots(q int, r float64) []*patch.Patch {
	mk := func(fix int, sign float64) *patch.Patch {
		return patch.FromFunc(q, func(u, v float64) [3]float64 {
			var p [3]float64
			p[fix] = sign
			p[(fix+1)%3] = u * sign
			p[(fix+2)%3] = v
			n := patch.Norm(p)
			return [3]float64{r * p[0] / n, r * p[1] / n, r * p[2] / n}
		})
	}
	var roots []*patch.Patch
	for fix := 0; fix < 3; fix++ {
		roots = append(roots, mk(fix, 1), mk(fix, -1))
	}
	return roots
}

func registerCubeSphere() {
	Register(&Scenario{
		Name:        "cubesphere",
		Description: "unit cubed-sphere verification surface (Fig. 9 boundary-solver convergence; no cells, not time-steppable)",
		Steppable:   false,
		BuildGeometry: func(p Params) (*Geom, error) {
			f := forest.NewUniform(CubeSphereRoots(8, 1), p.Level)
			return &Geom{Surf: bie.NewSurface(f, bie.DefaultParams())}, nil
		},
		Populate: func(g *Geom, p Params) (*Bundle, error) {
			return &Bundle{Surf: g.Surf, Config: core.Config{SphOrder: p.SphOrder}}, nil
		},
		GeometryKey: func(p Params) string { return fmt.Sprintf("level=%d", p.Level) },
	})
}

// networkGraphBuilders construct just the graph stage (nodes, segments,
// boundary conditions) of each network-family scenario.
var networkGraphBuilders = map[string]func(p Params) (*network.Network, error){
	"network-y": func(p Params) (*network.Network, error) {
		net := network.YBifurcation(network.YParams{
			ParentRadius: 1, ChildRadius: 0.75, ParentLen: 5, ChildLen: 4, HalfAngle: math.Pi / 5,
		})
		net.SetFlow(0, p.Inflow)
		net.SetPressure(2, 0)
		net.SetPressure(3, 0)
		return net, nil
	},
	"network-tree": func(p Params) (*network.Network, error) {
		net := network.BinaryTree(network.TreeParams{Depth: p.Depth, RootRadius: 1, RootLen: 5})
		net.SetFlow(0, p.Inflow)
		for _, term := range net.Terminals() {
			if term != 0 {
				net.SetPressure(term, 0)
			}
		}
		return net, nil
	},
	"network-honeycomb": func(p Params) (*network.Network, error) {
		net, in, out := network.Honeycomb(network.HoneycombParams{
			Rows: p.Rows, Cols: p.Cols, Radius: 0.8, Edge: 4,
		})
		net.SetFlow(in, p.Inflow)
		net.SetPressure(out, 0)
		return net, nil
	},
	"network-json": func(p Params) (*network.Network, error) {
		if p.NetworkPath == "" {
			return nil, fmt.Errorf("network-json needs params.network_path")
		}
		return network.Load(p.NetworkPath)
	},
}

// NetworkGraph builds only the graph (with boundary conditions) of a
// network-family scenario — cheap relative to the full geometry stage, so
// exporting a network as JSON never pays for the flow solve and surface
// discretization.
func NetworkGraph(name string, p Params) (*network.Network, error) {
	b, ok := networkGraphBuilders[name]
	if !ok {
		return nil, fmt.Errorf("scenario: %q is not a network-family scenario", name)
	}
	p.Defaults()
	return b(p)
}

// junctionKey renders the junction-blend axis of a network GeometryKey,
// with the zero value canonicalized to the model default so sweep points
// that build identical geometry share one cache entry, followed by the
// fixed blend-ladder depth and rim grading.
func junctionKey(p Params) string {
	blend := p.JunctionBlend
	if blend == 0 {
		blend = network.DefaultBlendRadius
	}
	return fmt.Sprintf("junction=blend%g,shrink=%d,grade=%d", blend, network.BlendLadderDepth, network.DefaultGradeLevels)
}

// buildNetworkGeom realizes a network scenario's geometry stage: apply the
// boundary conditions, solve the reduced-order flow, sweep the tube surface.
func buildNetworkGeom(net *network.Network, p Params) (*Geom, error) {
	flow, err := network.SolveFlow(net, p.Mu)
	if err != nil {
		return nil, err
	}
	ng, err := network.BuildGeometry(net, network.TubeParams{
		Order: 6, AxialLen: 3.5,
		BlendRadius: p.JunctionBlend,
	})
	if err != nil {
		return nil, err
	}
	return &Geom{
		Surf:    ng.Surface(p.Level, networkBIEParams()),
		Net:     net,
		NetGeom: ng,
		Flow:    flow,
	}, nil
}

// populateNetwork is the shared cell/BC stage of the network family:
// plasma-skimming haematocrit split, per-segment seeding, parabolic
// inlet/outlet boundary profiles.
func populateNetwork(g *Geom, p Params) (*Bundle, error) {
	if p.Dt == 0 {
		p.Dt = 0.02
	}
	H := network.SplitHaematocrit(g.Net, g.Flow, network.HaematocritParams{Inlet: p.Hct, Gamma: p.Gamma})
	radius := p.CellRadius
	if radius == 0 {
		radius = 0.3
	}
	margin := p.WallMargin
	if margin == 0 {
		margin = 0.12
	}
	maxCells := p.MaxCells
	if maxCells == 0 {
		maxCells = 6
	}
	gmresMax := p.GMRESMax
	if gmresMax == 0 {
		gmresMax = 25
	}
	minSep := p.MinSep
	if minSep == 0 {
		minSep = 0.06
	}
	cells := network.SeedCells(g.Net, H, network.SeedParams{
		SphOrder: p.SphOrder, CellRadius: radius, WallMargin: margin,
		MaxCells: maxCells, Seed: p.Seed,
	})
	return &Bundle{
		Surf:        g.Surf,
		Cells:       cells,
		G:           g.NetGeom.Inflow(g.Surf, g.Flow),
		Haematocrit: H,
		Config: core.Config{
			SphOrder: p.SphOrder, Mu: p.Mu, KappaB: p.KappaB, Dt: p.Dt, MinSep: minSep,
			CollisionOn: true,
			FMM:         bie.FMMConfig{Order: 4, LeafSize: 64, DirectBelow: 1 << 24},
			GMRESMax:    gmresMax, GMRESTol: p.GMRESTol,
		},
	}, nil
}

func registerNetworks() {
	Register(&Scenario{
		Name:        "network-y",
		Description: "canonical diverging Y-bifurcation: reduced-order flow, plasma-skimming haematocrit, seeded segments",
		Steppable:   true,
		BuildGeometry: func(p Params) (*Geom, error) {
			net, err := networkGraphBuilders["network-y"](p)
			if err != nil {
				return nil, err
			}
			return buildNetworkGeom(net, p)
		},
		Populate: populateNetwork,
		GeometryKey: func(p Params) string {
			return fmt.Sprintf("level=%d,inflow=%g,mu=%g,%s", p.Level, p.Inflow, p.Mu, junctionKey(p))
		},
	})
	Register(&Scenario{
		Name:        "network-tree",
		Description: "planar symmetric binary-tree network of configurable depth",
		Steppable:   true,
		BuildGeometry: func(p Params) (*Geom, error) {
			net, err := networkGraphBuilders["network-tree"](p)
			if err != nil {
				return nil, err
			}
			return buildNetworkGeom(net, p)
		},
		Populate: populateNetwork,
		GeometryKey: func(p Params) string {
			return fmt.Sprintf("level=%d,depth=%d,inflow=%g,mu=%g,%s", p.Level, p.Depth, p.Inflow, p.Mu, junctionKey(p))
		},
	})
	Register(&Scenario{
		Name:        "network-honeycomb",
		Description: "honeycomb capillary grid with inlet/outlet stubs",
		Steppable:   true,
		BuildGeometry: func(p Params) (*Geom, error) {
			net, err := networkGraphBuilders["network-honeycomb"](p)
			if err != nil {
				return nil, err
			}
			return buildNetworkGeom(net, p)
		},
		Populate: populateNetwork,
		GeometryKey: func(p Params) string {
			return fmt.Sprintf("level=%d,rows=%d,cols=%d,inflow=%g,mu=%g,%s", p.Level, p.Rows, p.Cols, p.Inflow, p.Mu, junctionKey(p))
		},
	})
	Register(&Scenario{
		Name:        "network-json",
		Description: "vascular network loaded from a JSON description (params: network_path); boundary conditions come from the file",
		Steppable:   true,
		BuildGeometry: func(p Params) (*Geom, error) {
			net, err := networkGraphBuilders["network-json"](p)
			if err != nil {
				return nil, err
			}
			return buildNetworkGeom(net, p)
		},
		Populate: populateNetwork,
		GeometryKey: func(p Params) string {
			return fmt.Sprintf("path=%s,level=%d,mu=%g,%s", p.NetworkPath, p.Level, p.Mu, junctionKey(p))
		},
	})
}

func init() {
	registerTorus()
	registerCappedTorus()
	registerTrefoil()
	registerCapsule()
	registerShear()
	registerCubeSphere()
	registerNetworks()
}
