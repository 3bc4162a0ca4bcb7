package network

import (
	"fmt"
	"math"

	"rbcflow/internal/la"
)

// The pressure system of a network with at most denseMaxNodes nodes is
// factored by dense LU, whose conservation holds to ~1e-15; larger networks
// go to Jacobi-preconditioned CG, stopped at relative residual cgTol or after
// cgMaxIter iterations.
const (
	denseMaxNodes = 4096
	cgTol         = 1e-12
	cgMaxIter     = 5000
)

// FlowSolution holds the reduced-order (Poiseuille/Kirchhoff) solution.
type FlowSolution struct {
	// P[i] is the pressure at node i.
	P []float64
	// Q[s] is the volumetric flow through segment s, positive from A to B.
	Q []float64
	// Cond[s] is the segment conductance πr⁴/(8μL).
	Cond []float64
	// Sparse reports that the CG backend solved the pressures (networks
	// above 4096 nodes); CGIters is its iteration count (0 on dense LU).
	Sparse  bool
	CGIters int
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
// It is SolveFlowVisc with a uniform viscosity field.
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
	k, err := assemble(n, mu)
	if err != nil {
		return nil, err
	}
	f := &FlowSolution{Cond: k.cond, Sparse: len(n.Nodes) > denseMaxNodes}
	var x []float64
	if f.Sparse {
		x, f.CGIters, err = k.solveCG()
	} else {
		x, err = k.solveDense()
	}
	if err != nil {
		return nil, fmt.Errorf("network: flow system solve: %w", err)
	}
	f.P, f.Q = k.flows(n, x)
	// Finite conductances still overflow when a boundary value is near
	// the float64 range.
	for _, v := range [][]float64{f.P, f.Q} {
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("network: flow solution is not finite (boundary values too large for the conductances)")
			}
		}
	}
	return f, nil
}

// kirchhoff is the reduced pressure system of a network: pressure-BC nodes
// (and the pinning node of a flow-only network) are eliminated into the
// right-hand side, so the CSR operator over the remaining unknowns is
// symmetric positive definite. Slot 0 of every row is its diagonal.
type kirchhoff struct {
	cond   []float64
	known  []float64 // prescribed pressure of each eliminated node
	unk    []int32   // unknown index per node, -1 when eliminated
	rowPtr []int32
	col    []int32
	val    []float64
	b      []float64
}

// assemble validates the network and the viscosity field, computes the
// segment conductances, eliminates the known pressures and builds the
// reduced system from a counting pass and a fill pass over the segments.
func assemble(n *Network, mu []float64) (*kirchhoff, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if len(mu) != len(n.Segs) {
		return nil, fmt.Errorf("network: viscosity field has %d entries, want %d segments", len(mu), len(n.Segs))
	}
	k := &kirchhoff{cond: make([]float64, len(n.Segs))}
	for si, s := range n.Segs {
		if !(mu[si] > 0) || math.IsInf(mu[si], 1) {
			return nil, &ViscosityError{Seg: si, Mu: mu[si]}
		}
		L := n.SegmentLength(si)
		if L <= 0 {
			return nil, fmt.Errorf("network: segment %d has zero length", si)
		}
		r := s.Radius
		k.cond[si] = math.Pi * r * r * r * r / (8 * mu[si] * L)
		// r⁴ or L can overflow, or r⁴ underflow: an infinite or zero
		// conductance makes the pressure system NaN or singular.
		if c := k.cond[si]; !(c > 0) || math.IsInf(c, 1) {
			return nil, fmt.Errorf("network: segment %d has conductance %g (radius %g, length %g): not finite and positive", si, c, r, L)
		}
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

	k.known = make([]float64, len(n.Nodes))
	k.unk = make([]int32, len(n.Nodes))
	var nu int32
	for i, nd := range n.Nodes {
		switch {
		case nd.BC.Kind == BCPressure:
			k.unk[i] = -1
			k.known[i] = nd.BC.Value
		case !havePressure && i == 0:
			k.unk[i] = -1 // pinning node, p = 0
		default:
			k.unk[i] = nu
			nu++
		}
	}

	// Row i holds Σ_s C_s (p_i − p_j) = Q_ext(i): the diagonal plus one
	// entry per unknown neighbour; known neighbours fold into b.
	k.rowPtr = make([]int32, nu+1)
	for _, s := range n.Segs {
		if k.unk[s.A] >= 0 && k.unk[s.B] >= 0 {
			k.rowPtr[k.unk[s.A]+1]++
			k.rowPtr[k.unk[s.B]+1]++
		}
	}
	for i := int32(0); i < nu; i++ {
		k.rowPtr[i+1] += k.rowPtr[i] + 1
	}
	k.col = make([]int32, k.rowPtr[nu])
	k.val = make([]float64, k.rowPtr[nu])
	k.b = make([]float64, nu)
	next := make([]int32, nu)
	for i := int32(0); i < nu; i++ {
		k.col[k.rowPtr[i]] = i
		next[i] = k.rowPtr[i] + 1
	}
	for i, nd := range n.Nodes {
		if k.unk[i] >= 0 && nd.BC.Kind == BCFlow {
			k.b[k.unk[i]] = nd.BC.Value
		}
	}
	add := func(i, j int, c float64) {
		ui := k.unk[i]
		k.val[k.rowPtr[ui]] += c
		if uj := k.unk[j]; uj >= 0 {
			k.col[next[ui]] = uj
			k.val[next[ui]] = -c
			next[ui]++
		} else {
			k.b[ui] += c * k.known[j]
		}
	}
	for si, s := range n.Segs {
		if k.unk[s.A] >= 0 {
			add(s.A, s.B, k.cond[si])
		}
		if k.unk[s.B] >= 0 {
			add(s.B, s.A, k.cond[si])
		}
	}
	return k, nil
}

// flows scatters the unknown pressures x back onto the nodes and returns the
// nodal pressures and the segment flows.
func (k *kirchhoff) flows(n *Network, x []float64) (p, q []float64) {
	p = append([]float64(nil), k.known...)
	for i, u := range k.unk {
		if u >= 0 {
			p[i] = x[u]
		}
	}
	q = make([]float64, len(n.Segs))
	for si, s := range n.Segs {
		q[si] = k.cond[si] * (p[s.A] - p[s.B])
	}
	return p, q
}

// solveDense factors the reduced system, scattered into a dense matrix, by
// LU with partial pivoting.
func (k *kirchhoff) solveDense() ([]float64, error) {
	nu := len(k.b)
	A := la.NewDense(nu, nu)
	for i := 0; i < nu; i++ {
		row := A.Row(i)
		for e := k.rowPtr[i]; e < k.rowPtr[i+1]; e++ {
			row[k.col[e]] += k.val[e]
		}
	}
	return la.SolveDense(A, k.b)
}

// solveCG runs Jacobi-preconditioned conjugate gradients on the reduced
// system from a zero guess to relative residual cgTol and returns the
// solution and the iteration count. All reductions are serial, so both are
// deterministic for fixed inputs.
func (k *kirchhoff) solveCG() ([]float64, int, error) {
	nu := len(k.b)
	x := make([]float64, nu)
	spmv := func(v, out []float64) {
		for i := 0; i < nu; i++ {
			var s float64
			for e := k.rowPtr[i]; e < k.rowPtr[i+1]; e++ {
				s += k.val[e] * v[k.col[e]]
			}
			out[i] = s
		}
	}
	dot := func(a, c []float64) float64 {
		var s float64
		for i := range a {
			s += a[i] * c[i]
		}
		return s
	}
	bNorm := math.Sqrt(dot(k.b, k.b))
	if bNorm == 0 {
		return x, 0, nil
	}
	r := append([]float64(nil), k.b...)
	z := make([]float64, nu)
	precond := func() {
		for i := range z {
			z[i] = r[i] / k.val[k.rowPtr[i]]
		}
	}
	precond()
	d := append([]float64(nil), z...)
	ad := make([]float64, nu)
	rz := dot(r, z)
	for it := 1; it <= cgMaxIter; it++ {
		spmv(d, ad)
		alpha := rz / dot(d, ad)
		for i := range x {
			x[i] += alpha * d[i]
			r[i] -= alpha * ad[i]
		}
		if math.Sqrt(dot(r, r)) <= cgTol*bNorm {
			return x, it, nil
		}
		precond()
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range d {
			d[i] = z[i] + beta*d[i]
		}
	}
	return nil, cgMaxIter, fmt.Errorf("CG did not reach relative residual %g in %d iterations (got %g)",
		cgTol, cgMaxIter, math.Sqrt(dot(r, r))/bNorm)
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
	for si, s := range n.Segs {
		net[s.A] -= f.Q[si]
		net[s.B] += f.Q[si]
	}
	var worst float64
	for i, nd := range n.Nodes {
		switch nd.BC.Kind {
		case BCFlow:
			net[i] += nd.BC.Value
		case BCPressure:
			// Pressure terminals exchange flow with the exterior freely:
			// their one segment's flow balances them exactly.
			continue
		}
		worst = math.Max(worst, math.Abs(net[i]))
	}
	return worst
}
