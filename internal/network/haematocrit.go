package network

import (
	"math"
	"math/rand"
	"sort"

	"rbcflow/internal/rbc"
)

// HaematocritParams configures the plasma-skimming split rule.
type HaematocritParams struct {
	// Inlet is the discharge haematocrit carried by every inflow terminal.
	// Taken literally: 0 means plasma-only flow (no cells seeded).
	Inlet float64
	// Gamma is the plasma-skimming exponent: at a diverging junction the
	// RBC flux splits in proportion to Q^Gamma, so Gamma > 1 sends
	// disproportionately many cells down the faster branch (Gamma = 1 is a
	// passive split; the classic Pries fits correspond to Gamma ≈ 1.2–1.6).
	Gamma float64
}

// stagnantQ treats |Q| below stagnantQ·max|Q| as stagnant (no cell
// transport).
const stagnantQ = 1e-12

func (p *HaematocritParams) defaults() {
	if p.Gamma == 0 {
		p.Gamma = 1.4
	}
}

// SplitHaematocrit propagates haematocrit from the inflow terminals through
// the network: nodes are visited in order of decreasing pressure (the flow
// digraph of a pressure-driven network is acyclic), the RBC flux arriving at
// each node is pooled, and at diverging junctions it is divided among the
// outgoing segments with weights Q^Gamma (plasma skimming). RBC flux
// Q·H is conserved at every junction by construction. Returns the
// per-segment discharge haematocrit.
func SplitHaematocrit(n *Network, f *FlowSolution, prm HaematocritParams) []float64 {
	prm.defaults()
	H := make([]float64, len(n.Segs))
	var qMax float64
	for _, q := range f.Q {
		qMax = math.Max(qMax, math.Abs(q))
	}
	if qMax == 0 {
		return H
	}
	cut := stagnantQ * qMax

	order := make([]int, len(n.Nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return f.P[order[a]] > f.P[order[b]] })

	inc := n.Incident()
	deg := n.Degree()
	for _, i := range order {
		// Pool the RBC flux arriving at node i. Terminal inflow comes off
		// the incidence list, not a TerminalInflow segment scan — this runs
		// for every node on every fixed-point iteration, so an O(segments)
		// lookup here would make the whole split quadratic.
		var phi float64 // RBC flux in
		if deg[i] == 1 && len(inc[i]) > 0 {
			si := inc[i][0]
			q := f.Q[si]
			if n.Segs[si].B == i {
				q = -q
			}
			if q > cut {
				phi += q * prm.Inlet
			}
		}
		var outSegs []int
		var qOutPow float64
		for _, si := range inc[i] {
			s := n.Segs[si]
			q := f.Q[si]
			if s.B == i {
				q = -q // re-sign so q > 0 means flow OUT of node i
			}
			if q > cut {
				outSegs = append(outSegs, si)
				qOutPow += math.Pow(q, prm.Gamma)
			} else if q < -cut {
				phi += -q * H[si] // upstream value already set
			}
		}
		if len(outSegs) == 0 || qOutPow == 0 {
			continue
		}
		for _, si := range outSegs {
			s := n.Segs[si]
			q := f.Q[si]
			if s.B == i {
				q = -q
			}
			w := math.Pow(q, prm.Gamma) / qOutPow
			H[si] = w * phi / q
		}
	}
	return H
}

// RBCFluxImbalance returns the worst violation of RBC flux conservation
// Σ(Q·H)_in = Σ(Q·H)_out over interior nodes; ideally zero.
func RBCFluxImbalance(n *Network, f *FlowSolution, H []float64) float64 {
	deg := n.Degree()
	net := make([]float64, len(n.Nodes))
	for si, s := range n.Segs {
		net[s.A] -= f.Q[si] * H[si]
		net[s.B] += f.Q[si] * H[si]
	}
	var worst float64
	for i := range n.Nodes {
		if deg[i] == 1 {
			continue
		}
		worst = math.Max(worst, math.Abs(net[i]))
	}
	return worst
}

// SeedParams configures haematocrit-driven cell seeding.
type SeedParams struct {
	// SphOrder of the generated cells.
	SphOrder int
	// CellRadius is the nominal biconcave disc radius (jittered ±10%).
	CellRadius float64
	// WallMargin keeps cell centers at least CellRadius + WallMargin off the
	// tube wall and off the segment ends.
	WallMargin float64
	// MaxCells caps the total count (0 = no cap).
	MaxCells int
	// Seed for placement and orientations.
	Seed int64
}

// SeedCells populates each segment with biconcave cells at the segment's
// target haematocrit H[s]: the cell count is ⌊H_s·V_s/v_cell⌋ with V_s the
// analytic tube volume and v_cell the nominal cell volume, and cells are
// placed at random positions in the tube's rotation-minimizing frame with a
// minimum center separation (rejection sampling, deterministic in Seed).
// This is the haematocrit-driven generalization of vessel.Fill for network
// geometries.
//
// Placement is validated against the field's SHARP union distance: a
// candidate is accepted when the value at its center clears the jittered
// cell radius plus WallMargin. The sharp distance is 1-Lipschitz,
// independent of the blend width, and its zero set never lies outside the
// blended wall, so acceptance certifies clearance from the blended wall at
// whatever width the geometry's blend-width ladder chose (SeedCells sees
// the graph, not the built geometry), at every station including those
// near junctions.
func SeedCells(n *Network, H []float64, prm SeedParams) []*rbc.Cell {
	if prm.SphOrder == 0 {
		prm.SphOrder = 8
	}
	field := NewField(n, 0) // EvalSharp ignores the blend width
	rng := rand.New(rand.NewSource(prm.Seed))
	vCell := rbc.NewBiconcaveCell(prm.SphOrder, prm.CellRadius, [3]float64{}, nil).Volume()
	var cells []*rbc.Cell
	var centers [][3]float64
	// Radii are jittered up to 1.1·CellRadius, so two max-jittered discs
	// span 2.2·CellRadius; separate centers by that plus a small clearance.
	minSep := 2.25 * prm.CellRadius
	for si, s := range n.Segs {
		if H[si] <= 0 {
			continue
		}
		cu := n.Curve(si)
		sw := newSweep(cu)
		L := cu.Length()
		vSeg := math.Pi * s.Radius * s.Radius * L
		want := int(H[si] * vSeg / vCell)
		// The field test below is the actual wall guard; sample the whole
		// station range and only keep the radial core bound.
		rhoMax := s.Radius - (prm.CellRadius + prm.WallMargin)
		if rhoMax <= 0 {
			continue // tube too narrow for this cell size
		}
		placed := 0
		for attempt := 0; attempt < 60*want && placed < want; attempt++ {
			if prm.MaxCells > 0 && len(cells) >= prm.MaxCells {
				return cells
			}
			t := rng.Float64()
			rho := rhoMax * math.Sqrt(rng.Float64())
			phi := 2 * math.Pi * rng.Float64()
			c := cu.Point(t)
			_, n1, n2 := sw.Frame(t)
			ctr := [3]float64{
				c[0] + rho*(math.Cos(phi)*n1[0]+math.Sin(phi)*n2[0]),
				c[1] + rho*(math.Cos(phi)*n1[1]+math.Sin(phi)*n2[1]),
				c[2] + rho*(math.Cos(phi)*n1[2]+math.Sin(phi)*n2[2]),
			}
			// The jitter is drawn before acceptance: the wall test margins
			// the jittered radius.
			r := prm.CellRadius * (0.9 + 0.2*rng.Float64())
			if field.EvalSharp(ctr) > -(1.1*r + prm.WallMargin) {
				continue // cell extent would cross the wall
			}
			ok := true
			for _, o := range centers {
				dx, dy, dz := ctr[0]-o[0], ctr[1]-o[1], ctr[2]-o[2]
				if dx*dx+dy*dy+dz*dz < minSep*minSep {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			rot := rbc.RandomRotation(rng)
			cells = append(cells, rbc.NewBiconcaveCell(prm.SphOrder, r, ctr, &rot))
			centers = append(centers, ctr)
			placed++
		}
	}
	return cells
}
