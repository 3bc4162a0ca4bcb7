package network

import (
	"fmt"
	"math"

	"rbcflow/internal/la"
)

// FlowSolution holds the reduced-order (Poiseuille/Kirchhoff) solution.
type FlowSolution struct {
	// P[i] is the pressure at node i.
	P []float64
	// Q[s] is the volumetric flow through segment s, positive from A to B.
	Q []float64
	// Cond[s] is the segment conductance πr⁴/(8μL).
	Cond []float64
}

// ViscosityError is the typed rejection of a non-physical viscosity value:
// non-positive, NaN, or infinite. Seg is the offending segment index, or -1
// when the scalar viscosity passed to SolveFlow is itself bad. Callers can
// errors.As for it to distinguish a bad rheology input from solver failure.
type ViscosityError struct {
	Seg int
	Mu  float64
}

func (e *ViscosityError) Error() string {
	if e.Seg < 0 {
		return fmt.Sprintf("network: viscosity must be positive and finite, got %g", e.Mu)
	}
	return fmt.Sprintf("network: segment %d viscosity must be positive and finite, got %g", e.Seg, e.Mu)
}

// SolveFlow solves the network flow model at a single constant viscosity.
// It is a compatibility shim over SolveFlowVisc, which takes a per-segment
// viscosity field (the Fåhræus–Lindqvist surrogate tier's entry point).
func SolveFlow(n *Network, mu float64) (*FlowSolution, error) {
	// !(mu > 0) also catches NaN, which a plain mu <= 0 lets through.
	if !(mu > 0) || math.IsInf(mu, 1) {
		return nil, &ViscosityError{Seg: -1, Mu: mu}
	}
	visc := make([]float64, len(n.Segs))
	for i := range visc {
		visc[i] = mu
	}
	return SolveFlowVisc(n, visc)
}

// SolveFlowVisc assembles and solves the reduced-order network flow model
// with a per-segment viscosity field: each segment is a Poiseuille impedance
// Q = C·Δp with C = πr⁴/(8·mu[s]·L), and Kirchhoff mass conservation holds
// at every node. Terminal nodes may carry pressure or flow boundary
// conditions; terminals without a BC are capped dead ends (zero flux). If no
// pressure BC is present, flow BCs must sum to zero and the pressure level
// is pinned at node 0.
func SolveFlowVisc(n *Network, mu []float64) (*FlowSolution, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if len(mu) != len(n.Segs) {
		return nil, fmt.Errorf("network: viscosity field has %d entries, want %d segments", len(mu), len(n.Segs))
	}
	nn := len(n.Nodes)
	cond := make([]float64, len(n.Segs))
	for si, s := range n.Segs {
		if !(mu[si] > 0) || math.IsInf(mu[si], 1) {
			return nil, &ViscosityError{Seg: si, Mu: mu[si]}
		}
		r := s.Radius
		L := n.SegmentLength(si)
		if L <= 0 {
			return nil, fmt.Errorf("network: segment %d has zero length", si)
		}
		cond[si] = math.Pi * r * r * r * r / (8 * mu[si] * L)
	}

	havePressure := false
	var flowSum float64
	for _, nd := range n.Nodes {
		switch nd.BC.Kind {
		case BCPressure:
			havePressure = true
		case BCFlow:
			flowSum += nd.BC.Value
		}
	}
	if !havePressure && math.Abs(flowSum) > 1e-9*(1+math.Abs(flowSum)) {
		return nil, fmt.Errorf("network: flow-only boundary conditions must sum to zero, got %g", flowSum)
	}

	// Unknowns: nodal pressures. Row i is either the Dirichlet condition
	// p_i = value, the pinning row (flow-only networks), or Kirchhoff:
	// Σ_s C_s (p_i − p_other) = Q_ext(i).
	A := la.NewDense(nn, nn)
	b := make([]float64, nn)
	for i, nd := range n.Nodes {
		if nd.BC.Kind == BCPressure {
			A.Set(i, i, 1)
			b[i] = nd.BC.Value
			continue
		}
		if !havePressure && i == 0 {
			A.Set(i, i, 1)
			b[i] = 0
			continue
		}
		if nd.BC.Kind == BCFlow {
			b[i] = nd.BC.Value
		}
		for si, s := range n.Segs {
			var other int
			switch i {
			case s.A:
				other = s.B
			case s.B:
				other = s.A
			default:
				continue
			}
			A.Set(i, i, A.At(i, i)+cond[si])
			A.Set(i, other, A.At(i, other)-cond[si])
		}
	}
	p, err := la.SolveDense(A, b)
	if err != nil {
		return nil, fmt.Errorf("network: flow system solve: %w", err)
	}
	q := make([]float64, len(n.Segs))
	for si, s := range n.Segs {
		q[si] = cond[si] * (p[s.A] - p[s.B])
	}
	return &FlowSolution{P: p, Q: q, Cond: cond}, nil
}

// TerminalInflow returns the volumetric flow entering the network through
// terminal node t (positive into the network, negative out). t must have
// degree 1.
func (f *FlowSolution) TerminalInflow(n *Network, t int) float64 {
	for si, s := range n.Segs {
		if s.A == t {
			return f.Q[si]
		}
		if s.B == t {
			return -f.Q[si]
		}
	}
	return 0
}

// MaxImbalance returns the worst |ΣQ_in − ΣQ_out| over all nodes, counting
// boundary inflow at terminals; ideally zero everywhere. One pass over the
// segments (not one scan per node) so the check stays O(nodes + segments) on
// million-segment surrogate networks.
func (f *FlowSolution) MaxImbalance(n *Network) float64 {
	net := make([]float64, len(n.Nodes))
	first := make([]int32, len(n.Nodes))
	for i := range first {
		first[i] = -1
	}
	for si, s := range n.Segs {
		net[s.A] -= f.Q[si]
		if first[s.A] < 0 {
			first[s.A] = int32(si)
		}
		net[s.B] += f.Q[si]
		if first[s.B] < 0 {
			first[s.B] = int32(si)
		}
	}
	var worst float64
	for i, nd := range n.Nodes {
		x := net[i]
		switch nd.BC.Kind {
		case BCFlow:
			x += nd.BC.Value
		case BCPressure:
			// Pressure terminals exchange flow with the exterior freely.
			if si := first[i]; si >= 0 {
				if n.Segs[si].A == i {
					x += f.Q[si]
				} else {
					x -= f.Q[si]
				}
			}
		}
		worst = math.Max(worst, math.Abs(x))
	}
	return worst
}
