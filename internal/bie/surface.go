// Package bie implements the parallel boundary integral equation solver of
// paper §3: Nyström discretization of (1/2 I + D + N)ϕ = g on the patch-based
// vessel surface, singular and near-singular quadrature evaluated adaptively
// at the target (adaptive.go), and GMRES solution with FMM-accelerated
// matrix-vector products.
//
// The double-layer operator is applied by the scheme the paper proposes in
// its §5.2 Discussion and §6: one far-field sum over the coarse
// discretization plus precomputed local singular corrections; the local
// operator (paper Eq. 3.3) is precomputed per target, which is possible
// because the vessel is rigid.
package bie

import (
	"math"
	"sync"

	"rbcflow/internal/patch"
	"rbcflow/internal/quadrature"

	"rbcflow/internal/forest"
)

// Params collects the discretization parameters of §3.1 and §5.1.
type Params struct {
	// QuadNodes is the number of Clenshaw–Curtis nodes per patch dimension
	// (11 in the paper: 121 quadrature points per patch).
	QuadNodes int
	// NearFactor sets the near zone: targets closer than NearFactor·L to a
	// patch use the singular/near-singular scheme.
	NearFactor float64
}

// DefaultParams is the calibrated configuration for the Gauss–Legendre
// patch quadrature used here: a wide near zone (1.2L) is needed because GL
// nodes do not cluster at patch edges the way the paper's Clenshaw–Curtis
// nodes do.
func DefaultParams() Params {
	return Params{QuadNodes: 9, NearFactor: 1.2}
}

func (p *Params) defaults() {
	d := DefaultParams()
	if p.QuadNodes == 0 {
		p.QuadNodes = d.QuadNodes
	}
	if p.NearFactor == 0 {
		p.NearFactor = d.NearFactor
	}
}

// Surface is the discretized vessel boundary Γ on its Nyström grid.
//
// Deviation from the paper: per-patch quadrature uses tensor Gauss–Legendre
// nodes rather than Clenshaw–Curtis. CC grids place nodes on patch
// boundaries, so adjacent patches carry nearly-coincident Nyström nodes
// whose kernel interactions are astronomically large and cancel only in
// exact arithmetic; Gauss–Legendre nodes are interior-only, which removes
// the coincidences structurally at the same order of accuracy.
type Surface struct {
	P Params
	F *forest.Forest

	NQ int // coarse nodes per patch = QuadNodes²

	// Coarse discretization (patch-major, NQ nodes per patch).
	Pts [][3]float64
	Nrm [][3]float64
	W   []float64 // area-weighted quadrature weights
	L   []float64 // per-patch size sqrt(area)
	// LMax is the per-patch longest side length (arc length along the node
	// grid). For isotropic patches LMax ≈ L; for the anisotropic panels of
	// edge-graded rim stacks it is the scale that near-zone tests must use
	// (the coarse rule's node spacing follows the long dimension).
	LMax []float64
	// UV[k] are the parameter coordinates of coarse node k within its patch.
	UV [][2]float64

	// Cached per-patch bounding boxes for the near-zone tests (lazy).
	bboxOnce sync.Once
	bboxLo   [][3]float64
	bboxHi   [][3]float64
	// Cached content fingerprint (lazy; the surface is rigid, so hashing
	// every patch's nodal geometry once is enough — see PlanFingerprint).
	fpOnce sync.Once
	fp     string
}

// NewSurface discretizes the forest with the given parameters.
func NewSurface(f *forest.Forest, p Params) *Surface {
	p.defaults()
	s := &Surface{P: p, F: f}
	q := p.QuadNodes
	s.NQ = q * q

	nodes, w1 := quadrature.GaussLegendre(q)
	np := f.NumPatches()
	s.Pts = make([][3]float64, np*s.NQ)
	s.Nrm = make([][3]float64, np*s.NQ)
	s.W = make([]float64, np*s.NQ)
	s.L = make([]float64, np)
	s.LMax = make([]float64, np)
	s.UV = make([][2]float64, np*s.NQ)
	for pid, pp := range f.Patches {
		s.L[pid] = pp.Size()
		for i := 0; i < q; i++ {
			for j := 0; j < q; j++ {
				k := pid*s.NQ + i*q + j
				pos, du, dv := pp.Derivs(nodes[i], nodes[j])
				cr := patch.Cross(du, dv)
				jac := patch.Norm(cr)
				s.Pts[k] = pos
				s.Nrm[k] = patch.Normalize(cr)
				s.W[k] = jac * w1[i] * w1[j]
				s.UV[k] = [2]float64{nodes[i], nodes[j]}
			}
		}
		// Longest side: max arc length along any node-grid row or column
		// (the GL grid stops short of the patch edge; 1.2 covers the
		// overhang at the orders used here).
		var uLen, vLen float64
		for i := 0; i < q; i++ {
			var lu, lv float64
			for j := 0; j+1 < q; j++ {
				a := s.Pts[pid*s.NQ+i*q+j]
				b := s.Pts[pid*s.NQ+i*q+j+1]
				lv += patch.Norm([3]float64{b[0] - a[0], b[1] - a[1], b[2] - a[2]})
				av := s.Pts[pid*s.NQ+j*q+i]
				bv := s.Pts[pid*s.NQ+(j+1)*q+i]
				lu += patch.Norm([3]float64{bv[0] - av[0], bv[1] - av[1], bv[2] - av[2]})
			}
			uLen = math.Max(uLen, lu)
			vLen = math.Max(vLen, lv)
		}
		s.LMax[pid] = 1.2 * math.Max(uLen, vLen)
	}
	return s
}

// Nodes1D returns the 1D quadrature nodes used per patch dimension.
func (s *Surface) Nodes1D() []float64 {
	nodes, _ := quadrature.GaussLegendre(s.P.QuadNodes)
	return nodes
}

// NumNodes returns the number of coarse Nyström nodes.
func (s *Surface) NumNodes() int { return len(s.Pts) }

// NumUnknowns returns the number of scalar unknowns (3 per node).
func (s *Surface) NumUnknowns() int { return 3 * len(s.Pts) }

// PatchOf returns the patch index of coarse node k.
func (s *Surface) PatchOf(k int) int { return k / s.NQ }

// EnclosedVolume returns the enclosed volume of the surface by the
// divergence theorem over the coarse quadrature: V = (1/3)|∮ x·n dA|.
// Normals must point out of the enclosed fluid.
func (s *Surface) EnclosedVolume() float64 {
	var v float64
	for k, x := range s.Pts {
		n := s.Nrm[k]
		v += (x[0]*n[0] + x[1]*n[1] + x[2]*n[2]) * s.W[k] / 3
	}
	return math.Abs(v)
}

// NetFlux returns the discrete net flux ∮ g·n dA of a boundary velocity g
// (3 values per coarse node) over the listed patches, or over the whole
// surface when patches is nil. The interior Dirichlet Stokes problem is
// solvable only if this vanishes for every closed component of Γ, so
// callers assert NetFlux ≈ 0 per component before solving (the vascular
// network geometry exposes the per-component patch sets).
func (s *Surface) NetFlux(g []float64, patches []int) float64 {
	var flux float64
	addPatch := func(pid int) {
		for k := pid * s.NQ; k < (pid+1)*s.NQ; k++ {
			flux += (g[3*k]*s.Nrm[k][0] + g[3*k+1]*s.Nrm[k][1] + g[3*k+2]*s.Nrm[k][2]) * s.W[k]
		}
	}
	if patches == nil {
		for pid := range s.F.Patches {
			addPatch(pid)
		}
	} else {
		for _, pid := range patches {
			addPatch(pid)
		}
	}
	return flux
}

// InsideIndicator evaluates the Laplace double-layer identity at x using the
// coarse quadrature: ≈1 inside the fluid domain, ≈0 outside. Accurate away
// from the wall (further than about one patch size); used by the filling
// algorithm of §5.1.
func (s *Surface) InsideIndicator(x [3]float64) float64 {
	var v float64
	for k, y := range s.Pts {
		rx, ry, rz := x[0]-y[0], x[1]-y[1], x[2]-y[2]
		r2 := rx*rx + ry*ry + rz*rz
		if r2 == 0 {
			continue
		}
		r := math.Sqrt(r2)
		n := s.Nrm[k]
		v += -(rx*n[0] + ry*n[1] + rz*n[2]) * s.W[k] / (4 * math.Pi * r2 * r)
	}
	return v
}
