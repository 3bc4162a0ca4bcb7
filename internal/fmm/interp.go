// Package fmm implements a kernel-independent black-box fast multipole
// method (Fong & Darve style, Chebyshev interpolation on a uniform octree)
// standing in for PVFMM [26, 27] (substitution documented in DESIGN.md).
// It evaluates N-body sums u(x_t) = Σ_s K(x_t − y_s) q_s for any
// kernels.Kernel, including the 9-component tensor form of the Stokes
// double layer, in O(N) time, and supports the distributed execution model
// of package par: partial upward passes per rank followed by an all-reduce
// of multipoles, with the downward pass restricted to each rank's targets.
package fmm

import "rbcflow/internal/quadrature"

// chebInterp holds the order-n Chebyshev interpolation operators shared by
// P2M, M2M, L2L and L2P.
type chebInterp struct {
	n     int          // 1D order
	nodes []float64    // first-kind Chebyshev nodes, length n
	nn    int          // n^3 nodes per box
	node3 [][3]float64 // tensor-product node coordinates in [-1,1]^3
	// childW[c] is the nn x nn matrix W[j][k] = S(childNode_j in parent
	// coords, parentNode_k) for child octant c.
	childW [8][]float64
}

// s1d evaluates the stable interpolation kernel
// S_n(x, x_k) = 1/n + 2/n Σ_{l=1}^{n-1} T_l(x) T_l(x_k).
func (ci *chebInterp) s1d(x float64, k int) float64 {
	n := ci.n
	xk := ci.nodes[k]
	s := 1.0 / float64(n)
	// Chebyshev recurrences for T_l(x) and T_l(xk).
	tx0, tx1 := 1.0, x
	tk0, tk1 := 1.0, xk
	for l := 1; l < n; l++ {
		s += 2.0 / float64(n) * tx1 * tk1
		tx0, tx1 = tx1, 2*x*tx1-tx0
		tk0, tk1 = tk1, 2*xk*tk1-tk0
	}
	return s
}

// weights3d fills w[k] with the tensor-product interpolation weights of
// point ξ (box reference coordinates in [-1,1]^3).
func (ci *chebInterp) weights3d(xi [3]float64, w []float64) {
	n := ci.n
	// Called once per source and once per target: the 1D weights stay on the
	// stack at the orders in use.
	var buf [3 * 8]float64
	w1 := buf[:]
	if 3*n > len(buf) {
		w1 = make([]float64, 3*n)
	}
	wx, wy, wz := w1[:n], w1[n:2*n], w1[2*n:3*n]
	for k := 0; k < n; k++ {
		wx[k] = ci.s1d(xi[0], k)
		wy[k] = ci.s1d(xi[1], k)
		wz[k] = ci.s1d(xi[2], k)
	}
	idx := 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			wab := wx[a] * wy[b]
			for c := 0; c < n; c++ {
				w[idx] = wab * wz[c]
				idx++
			}
		}
	}
}

func newChebInterp(n int) *chebInterp {
	ci := &chebInterp{n: n, nodes: quadrature.ChebyshevFirst(n)}
	ci.nn = n * n * n
	ci.node3 = make([][3]float64, 0, ci.nn)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for c := 0; c < n; c++ {
				ci.node3 = append(ci.node3, [3]float64{ci.nodes[a], ci.nodes[b], ci.nodes[c]})
			}
		}
	}
	// Child transfer matrices: child octant c has center offset ±1/2 in each
	// dim; child node ξ maps to parent coordinate ξ/2 + off.
	for c := 0; c < 8; c++ {
		off := [3]float64{
			float64(c&1)*1.0 - 0.5,
			float64(c>>1&1)*1.0 - 0.5,
			float64(c>>2&1)*1.0 - 0.5,
		}
		w := make([]float64, ci.nn*ci.nn)
		row := make([]float64, ci.nn)
		for j := 0; j < ci.nn; j++ {
			xi := ci.node3[j]
			p := [3]float64{xi[0]/2 + off[0], xi[1]/2 + off[1], xi[2]/2 + off[2]}
			ci.weights3d(p, row)
			copy(w[j*ci.nn:(j+1)*ci.nn], row)
		}
		ci.childW[c] = w
	}
	return ci
}
