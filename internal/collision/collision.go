// Package collision implements the parallel constraint-based collision
// handling of paper §4: linear triangle proxy meshes for RBCs and vessel
// patches, candidate-pair detection with space-time bounding boxes and the
// spatial-hash sort (Fig. 3), proximity "gap volumes" V(t) with the
// complementarity conditions λ ≥ 0, V ≥ 0, λ·V = 0 (Eq. 2.7), an LCP solve
// by minimum-map Newton with GMRES (as in [24] §3.2.2), and the NCP loop
// that applies around seven LCP linearizations per step.
//
// Substitution (see DESIGN.md): the space-time interference volumes of
// [17, 25] are replaced by piecewise-linear proximity deficits — the
// formulation of the paper's closest relative [53] — preserving the
// complementarity structure and parallel assembly.
package collision

import (
	"math"

	"rbcflow/internal/forest"
	"rbcflow/internal/la"
	"rbcflow/internal/morton"
	"rbcflow/internal/par"
)

// Mesh is a linear triangle proxy of one object (an RBC or a vessel patch).
type Mesh struct {
	// ID is a globally unique object id; vessel meshes are Rigid.
	ID    int
	Rigid bool
	// V are current vertex positions, VNext the candidate end-of-step
	// positions (equal to V for rigid objects).
	V, VNext [][3]float64
	// Tri indexes vertex triples.
	Tri [][3]int
	// VertW are per-vertex area weights used to scale contact forces.
	VertW []float64
}

// SpaceTimeBBox returns the bounding box of V ∪ VNext inflated by pad
// (the space-time box of Fig. 3).
func (m *Mesh) SpaceTimeBBox(pad float64) (lo, hi [3]float64) {
	lo = [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi = [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for _, set := range [][][3]float64{m.V, m.VNext} {
		for _, v := range set {
			for d := 0; d < 3; d++ {
				lo[d] = math.Min(lo[d], v[d])
				hi[d] = math.Max(hi[d], v[d])
			}
		}
	}
	for d := 0; d < 3; d++ {
		lo[d] -= pad
		hi[d] += pad
	}
	return lo, hi
}

// Contact is one active proximity constraint between a vertex of mesh A and
// the surface of mesh B: V_k = minSep − dist ≥ 0 must be restored.
type Contact struct {
	MeshA, MeshB int // object IDs
	Vertex       int // vertex index in A
	Gap          float64
	Normal       [3]float64 // direction pushing A's vertex away from B
	Weight       float64    // vertex area weight
}

// pointTriDist returns the distance from p to triangle (a, b, c) and the
// closest point.
func pointTriDist(p, a, b, c [3]float64) (float64, [3]float64) {
	ab := sub(b, a)
	ac := sub(c, a)
	ap := sub(p, a)
	d1 := dot3(ab, ap)
	d2 := dot3(ac, ap)
	if d1 <= 0 && d2 <= 0 {
		return norm3(ap), a
	}
	bp := sub(p, b)
	d3 := dot3(ab, bp)
	d4 := dot3(ac, bp)
	if d3 >= 0 && d4 <= d3 {
		return norm3(bp), b
	}
	vc := d1*d4 - d3*d2
	if vc <= 0 && d1 >= 0 && d3 <= 0 {
		t := d1 / (d1 - d3)
		q := add(a, scale(ab, t))
		return norm3(sub(p, q)), q
	}
	cp := sub(p, c)
	d5 := dot3(ab, cp)
	d6 := dot3(ac, cp)
	if d6 >= 0 && d5 <= d6 {
		return norm3(cp), c
	}
	vb := d5*d2 - d1*d6
	if vb <= 0 && d2 >= 0 && d6 <= 0 {
		t := d2 / (d2 - d6)
		q := add(a, scale(ac, t))
		return norm3(sub(p, q)), q
	}
	va := d3*d6 - d5*d4
	if va <= 0 && (d4-d3) >= 0 && (d5-d6) >= 0 {
		t := (d4 - d3) / ((d4 - d3) + (d5 - d6))
		q := add(b, scale(sub(c, b), t))
		return norm3(sub(p, q)), q
	}
	denom := 1 / (va + vb + vc)
	v := vb * denom
	w := vc * denom
	q := add(a, add(scale(ab, v), scale(ac, w)))
	return norm3(sub(p, q)), q
}

// DetectParams configures detection.
type DetectParams struct {
	MinSep float64 // required separation distance
}

// CandidatePairs is the broad phase: the distributed spatial hash of
// §3.3/§4 over the rank-local meshes. It returns every ordered pair (A, B)
// of meshes whose space-time boxes occupy a common hash cell — a superset of
// the pairs whose boxes overlap, since a cell is about one mesh diameter
// wide and the boxes themselves are never compared (a rank sees remote
// meshes only as hash entries). On a lattice of well-separated cells that is
// every neighbour pair. The exact cull is FindContacts'. Returned pairs
// reference global mesh IDs; each pair appears on the rank owning mesh A.
func CandidatePairs(c *par.Comm, meshes []*Mesh, minSep float64) [][2]int {
	// Grid spacing from average box diagonal (allreduced).
	var sum float64
	var count int
	for _, m := range meshes {
		lo, hi := m.SpaceTimeBBox(minSep)
		sum += norm3(sub(hi, lo))
		count++
	}
	stats := []float64{sum, float64(count)}
	c.AllreduceSum(stats)
	if stats[1] == 0 {
		return nil
	}
	h := stats[0] / stats[1]
	origin := []float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	for _, m := range meshes {
		lo, _ := m.SpaceTimeBBox(minSep)
		for d := 0; d < 3; d++ {
			origin[d] = math.Min(origin[d], lo[d])
		}
	}
	c.AllreduceMin(origin)
	grid := morton.NewGrid([3]float64{origin[0] - h, origin[1] - h, origin[2] - h}, h)

	// Register each mesh's box; query with each mesh's box corners treated
	// as points is insufficient, so register boxes on both sides: mesh i
	// queries all boxes whose cells overlap its own cells.
	boxes := make([]forest.BoxItem, len(meshes))
	for i, m := range meshes {
		lo, hi := m.SpaceTimeBBox(minSep)
		boxes[i] = forest.BoxItem{ID: uint64(m.ID), Lo: lo, Hi: hi}
	}
	// Points: sample own box cells (centers) so overlapping boxes share a
	// cell key with at least one sample.
	var pts []forest.PointItem
	ptMesh := []int{}
	for i, m := range meshes {
		lo, hi := m.SpaceTimeBBox(minSep)
		for _, key := range grid.KeysInBox(lo, hi) {
			ix, iy, iz := morton.Decode(key)
			ctr := [3]float64{
				origin[0] - h + (float64(ix)+0.5)*h,
				origin[1] - h + (float64(iy)+0.5)*h,
				origin[2] - h + (float64(iz)+0.5)*h,
			}
			pts = append(pts, forest.PointItem{ID: uint64(len(pts)), Pos: ctr})
			ptMesh = append(ptMesh, i)
		}
	}
	cand := forest.NearPairs(c, grid, boxes, pts)
	seen := map[[2]int]bool{}
	var out [][2]int
	for pi, list := range cand {
		a := meshes[ptMesh[pi]].ID
		for _, b := range list {
			if int(b) == a {
				continue
			}
			key := [2]int{a, int(b)}
			if !seen[key] {
				seen[key] = true
				out = append(out, key)
			}
		}
	}
	return out
}

// aabb is an axis-aligned box.
type aabb struct{ lo, hi [3]float64 }

// boundsOf returns the box of pts (inverted, at infinite distance from
// everything, when pts is empty).
func boundsOf(pts ...[3]float64) aabb {
	b := aabb{
		lo: [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)},
		hi: [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)},
	}
	for _, p := range pts {
		for d := 0; d < 3; d++ {
			if p[d] < b.lo[d] {
				b.lo[d] = p[d]
			}
			if p[d] > b.hi[d] {
				b.hi[d] = p[d]
			}
		}
	}
	return b
}

// dist2 is the squared distance from p to the box (0 inside): a lower bound
// on the squared distance from p to anything the box contains.
func (b *aabb) dist2(p [3]float64) float64 {
	var s float64
	for d := 0; d < 3; d++ {
		if e := b.lo[d] - p[d]; e > 0 {
			s += e * e
		} else if e := p[d] - b.hi[d]; e > 0 {
			s += e * e
		}
	}
	return s
}

const (
	// pairGrain is the candidate-pair chunk of FindContacts' loop: nearly
	// every pair of a dense suspension is culled in under a microsecond, so
	// a chunk carries enough of them to amortise its hand-off.
	pairGrain = 64
	// cullSlack, times the size of the pair's geometry, is how far a box
	// bound must clear a threshold before anything is skipped on it. The
	// bounds hold in exact arithmetic; pointTriDist's rounding error is a few
	// ulps of that size, two orders of magnitude below the slack, so a
	// skipped vertex or triangle is one the full loop would have rejected
	// on its computed distance too.
	cullSlack = 1e-12
)

// narrowPhase is the per-chunk state of FindContacts.
type narrowPhase struct {
	byID   map[int]*Mesh
	minSep float64
	triBox []aabb // triangle boxes of the current pair's B, reused across pairs
}

// FindContacts computes active proximity constraints between the candidate
// pairs (vertices of A against triangles of B, at the candidate positions
// VNext). byID resolves global mesh IDs (the vessel meshes are replicated;
// remote RBC meshes must be resolvable too — core gathers them).
//
// This is where the exact cull happens (CandidatePairs only hashes): a
// vertex farther than the 4·MinSep gate from B's box, and a triangle whose
// box is no closer than the closest triangle so far, cannot change the
// result and are skipped unmeasured. Pairs run in chunks on the node's
// worker pool; contacts come back in pair order, then vertex order, for any
// core count.
func FindContacts(pairs [][2]int, byID map[int]*Mesh, prm DetectParams) []Contact {
	chunks := make([][]Contact, (len(pairs)+pairGrain-1)/pairGrain)
	par.For(len(pairs), pairGrain, func(lo, hi int) {
		np := narrowPhase{byID: byID, minSep: prm.MinSep}
		var out []Contact
		for _, pr := range pairs[lo:hi] {
			out = np.pair(out, pr)
		}
		chunks[lo/pairGrain] = out
	})
	var out []Contact
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// pair appends the contacts of one candidate pair to out.
func (np *narrowPhase) pair(out []Contact, pr [2]int) []Contact {
	a, okA := np.byID[pr[0]]
	b, okB := np.byID[pr[1]]
	if !okA || !okB || a.Rigid {
		return out // contacts are owned by the deformable side
	}
	gate := 4 * np.minSep
	bb := boundsOf(b.VNext...)
	slack := cullSlack * (norm3(sub(bb.hi, bb.lo)) + gate)
	far2 := (gate + slack) * (gate + slack)
	boxed := false
	for vi, p := range a.VNext {
		if bb.dist2(p) > far2 {
			continue
		}
		if !boxed {
			np.triBox = np.triBox[:0]
			for _, tri := range b.Tri {
				np.triBox = append(np.triBox, boundsOf(b.VNext[tri[0]], b.VNext[tri[1]], b.VNext[tri[2]]))
			}
			boxed = true
		}
		best := math.Inf(1)
		var bestQ, bestN [3]float64
		for ti, tri := range b.Tri {
			if reach := best + slack; np.triBox[ti].dist2(p) >= reach*reach {
				continue
			}
			d, q := pointTriDist(p, b.VNext[tri[0]], b.VNext[tri[1]], b.VNext[tri[2]])
			if d < best {
				fn := cross3(sub(b.VNext[tri[1]], b.VNext[tri[0]]), sub(b.VNext[tri[2]], b.VNext[tri[0]]))
				best, bestQ, bestN = d, q, fn
			}
		}
		if best > gate {
			continue
		}
		// Sign the distance by the side the vertex STARTED the step on
		// (the collision-free state at time t): penetration shows up as
		// a negative signed distance, and the push direction points back
		// to the safe side. This is the space-time information that the
		// interference volumes of [17, 25] encode.
		nn := norm3(bestN)
		if nn < 1e-14 {
			continue
		}
		n := scale(bestN, 1/nn)
		if dot3(sub(a.V[vi], bestQ), n) < 0 {
			n = scale(n, -1)
		}
		signed := dot3(sub(p, bestQ), n)
		if signed < np.minSep {
			out = append(out, Contact{
				MeshA: pr[0], MeshB: pr[1], Vertex: vi,
				Gap:    np.minSep - signed,
				Normal: n,
				Weight: a.VertW[vi],
			})
		}
	}
	return out
}

// SolveLCP solves the complementarity problem λ ≥ 0, Bλ + q ≥ 0,
// λ·(Bλ+q) = 0 with a minimum-map Newton method: at each iteration the
// active set {i : λ_i − (Bλ+q)_i > 0} is solved with GMRES (as in [24]).
// B is applied through apply (dst = B·x). q = −V(t) gaps (negative for
// violations). Returns λ.
func SolveLCP(apply la.Operator, q []float64, maxNewton int) []float64 {
	m := len(q)
	lam := make([]float64, m)
	if m == 0 {
		return lam
	}
	w := make([]float64, m)
	// Work vectors of the active-set operator: full is zero outside the
	// active set between applications.
	full := make([]float64, m)
	tmp := make([]float64, m)
	for it := 0; it < maxNewton; it++ {
		apply(w, lam)
		active := make([]bool, m)
		done := true
		for i := range w {
			w[i] += q[i]
			// Minimum map: H_i = min(λ_i, w_i).
			if lam[i] < w[i] {
				// λ smaller: constraint inactive; require λ_i = 0.
				if lam[i] != 0 {
					done = false
				}
			} else {
				active[i] = true
				if math.Abs(w[i]) > 1e-10 {
					done = false
				}
			}
		}
		if done && it > 0 {
			break
		}
		// Solve B_AA λ_A = −q_A on the active set.
		idx := []int{}
		for i, a := range active {
			if a {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			for i := range lam {
				lam[i] = 0
			}
			break
		}
		sub := func(dst, x []float64) {
			for k, i := range idx {
				full[i] = x[k]
			}
			apply(tmp, full)
			for k, i := range idx {
				dst[k] = tmp[i]
				full[i] = 0
			}
		}
		rhs := make([]float64, len(idx))
		x0 := make([]float64, len(idx))
		for k, i := range idx {
			rhs[k] = -q[i]
			x0[k] = lam[i]
		}
		res, err := la.GMRES(sub, rhs, x0, la.GMRESOptions{Tol: 1e-10, MaxIters: 100, Restart: 50})
		_ = res
		if err != nil {
			break
		}
		for i := range lam {
			lam[i] = 0
		}
		for k, i := range idx {
			lam[i] = math.Max(0, x0[k])
		}
	}
	return lam
}

func sub(a, b [3]float64) [3]float64           { return [3]float64{a[0] - b[0], a[1] - b[1], a[2] - b[2]} }
func add(a, b [3]float64) [3]float64           { return [3]float64{a[0] + b[0], a[1] + b[1], a[2] + b[2]} }
func scale(a [3]float64, s float64) [3]float64 { return [3]float64{a[0] * s, a[1] * s, a[2] * s} }
func dot3(a, b [3]float64) float64             { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }
func norm3(a [3]float64) float64               { return math.Sqrt(dot3(a, a)) }

func cross3(a, b [3]float64) [3]float64 {
	return [3]float64{a[1]*b[2] - a[2]*b[1], a[2]*b[0] - a[0]*b[2], a[0]*b[1] - a[1]*b[0]}
}
