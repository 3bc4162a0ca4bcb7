// Package forest manages the vessel surface as a forest of quadtrees over
// root polynomial patches — the p4est [7] stand-in (see DESIGN.md). It
// provides uniform refinement (each level splits every patch in four,
// exactly, via polynomial resampling), Morton-ordered block partitioning of
// patches over ranks, and the parallel closest-point search of paper §3.3.
//
// Patch geometry is replicated read-only across ranks (the ranks share one
// address space); ownership ranges partition all work and all dynamic data
// exactly as the paper's distributed forest does.
package forest

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"rbcflow/internal/morton"
	"rbcflow/internal/par"
	"rbcflow/internal/patch"
	"rbcflow/internal/quadrature"
)

// Forest is a uniformly refined set of surface patches.
type Forest struct {
	// Order is the polynomial order of every patch.
	Order int
	// Roots are the unrefined input patches (the vessel quad mesh).
	Roots []*patch.Patch
	// Level is the number of uniform 4-way subdivisions applied.
	Level int
	// Patches are the leaves (the paper's coarse discretization of Γ),
	// Morton-ordered along each root's quadtree.
	Patches []*patch.Patch
	// RootOf[i] is the root index of leaf i.
	RootOf []int
}

// NewUniform refines each root patch level times (4^level leaves per root).
func NewUniform(roots []*patch.Patch, level int) *Forest {
	f := &Forest{Roots: roots, Level: level}
	if len(roots) > 0 {
		f.Order = roots[0].Q
	}
	for ri, r := range roots {
		leaves := []*patch.Patch{r}
		for l := 0; l < level; l++ {
			next := make([]*patch.Patch, 0, 4*len(leaves))
			for _, p := range leaves {
				ch := p.Subdivide()
				// Z-order of quadrants keeps neighbors close in index space.
				next = append(next, ch[0], ch[1], ch[2], ch[3])
			}
			leaves = next
		}
		for _, p := range leaves {
			f.Patches = append(f.Patches, p)
			f.RootOf = append(f.RootOf, ri)
		}
	}
	return f
}

// EdgeGrade requests an edge-graded split of one root patch (see
// patch.SplitEdgeGraded): the root is replaced by a stack of Levels+1
// panels shrinking by quadrature.GradingRatio toward Edge — the
// rim-adjacent refinement of the edge-graded cap discretization.
type EdgeGrade struct {
	Root   int
	Edge   patch.Edge
	Levels int
}

// SplitRootsGraded applies edge-graded splits to the listed roots, leaving
// every other root untouched. It returns the new root set (graded stacks
// replace their root in place, preserving relative order) and origin, with
// origin[i] the index in roots that produced out[i] — the hook callers use
// to carry per-root metadata (patch kind, owning segment, cap identity)
// through the split. A root may be graded toward several edges (a barrel
// panel with rims at both ends, a cap corner panel); the grades combine
// into one tensor-product panel family per root, so opposite-edge grades
// share the coarse middle panel instead of re-splitting each other's fine
// panels.
func SplitRootsGraded(roots []*patch.Patch, grades []EdgeGrade) (out []*patch.Patch, origin []int) {
	type axes struct{ uLo, uHi, vLo, vHi *EdgeGrade }
	byRoot := map[int]*axes{}
	for i := range grades {
		g := &grades[i]
		a := byRoot[g.Root]
		if a == nil {
			a = &axes{}
			byRoot[g.Root] = a
		}
		switch g.Edge {
		case patch.EdgeULo:
			a.uLo = g
		case patch.EdgeUHi:
			a.uHi = g
		case patch.EdgeVLo:
			a.vLo = g
		default:
			a.vHi = g
		}
	}
	for ri, r := range roots {
		a := byRoot[ri]
		if a == nil {
			out = append(out, r)
			origin = append(origin, ri)
			continue
		}
		ub := axisBreakpoints(a.uLo, a.uHi)
		vb := axisBreakpoints(a.vLo, a.vHi)
		for i := 0; i+1 < len(ub); i++ {
			for j := 0; j+1 < len(vb); j++ {
				out = append(out, r.Subpatch(ub[i], ub[i+1], vb[j], vb[j+1]))
				origin = append(origin, ri)
			}
		}
	}
	return out, origin
}

// axisBreakpoints merges the grades toward the two ends of one parameter
// axis into a single breakpoint ladder on [-1, 1].
func axisBreakpoints(lo, hi *EdgeGrade) []float64 {
	switch {
	case lo == nil && hi == nil:
		return []float64{-1, 1}
	case hi == nil:
		return quadrature.GradedBreakpoints(-1, 1, lo.Levels)
	case lo == nil:
		return mirror(quadrature.GradedBreakpoints(-1, 1, hi.Levels))
	default:
		b := quadrature.GradedBreakpoints(-1, 0, lo.Levels)
		m := mirror(quadrature.GradedBreakpoints(-1, 0, hi.Levels))
		// b climbs from -1 to 0; m (the reflection) climbs from 0 to 1.
		return append(b, m[1:]...)
	}
}

// mirror reflects a breakpoint ladder about 0, reversing order.
func mirror(b []float64) []float64 {
	out := make([]float64, len(b))
	for i, v := range b {
		out[len(b)-1-i] = -v
	}
	return out
}

// NumPatches returns the number of leaf patches.
func (f *Forest) NumPatches() int { return len(f.Patches) }

// OwnerRange returns the block partition [lo, hi) of leaf patches owned by
// the given rank.
func (f *Forest) OwnerRange(p, rank int) (lo, hi int) {
	return par.BlockRange(len(f.Patches), p, rank)
}

// Closest describes the result of a closest-point query against Γ.
type Closest struct {
	// PatchID is the leaf patch containing the closest point, or -1 when the
	// query point is farther than dEps from every patch (no near-singular
	// treatment needed).
	PatchID int
	U, V    float64
	Y       [3]float64
	Dist    float64
}

// ClosestPoints runs the parallel closest-point search of paper §3.3 for
// the rank-local query points pts: patch near-zone bounding boxes (inflated
// by dEps) and point keys are collocated on hashed owner ranks (the sort
// stage), candidate pairs return to the point owners, and the local Newton
// minimization (patch.ClosestPoint) resolves exact distances; a final local
// reduction picks the closest patch.
func (f *Forest) ClosestPoints(c *par.Comm, pts [][3]float64, dEps float64) []Closest {
	if f.NumPatches() == 0 {
		out := make([]Closest, len(pts))
		for i := range out {
			out[i] = Closest{PatchID: -1, Dist: math.Inf(1)}
		}
		return out
	}
	cand := f.closestCandidates(c, pts, dEps)
	// Local Newton distance per candidate patch; keep the closest
	// (paper §3.3 steps d–e; the reduce is local because every candidate
	// patch is readable in-process). The hash grid returns every patch whose
	// inflated box shares the point's cell — several times the patches that
	// can win — so the candidates are searched in ascending order of the
	// distance to their enclosure box, a lower bound on anything the Newton
	// search can return, and the search stops at the first bound beyond the
	// best distance found. Each point's search is independent, so the points
	// run in disjoint chunks on the node's worker pool.
	out := make([]Closest, len(pts))
	par.For(len(pts), closestGrain, func(lo, hi int) {
		var order []boundedCand
		for i := lo; i < hi; i++ {
			order = order[:0]
			for _, pid := range cand[i] {
				blo, bhi := f.Patches[pid].Enclosure()
				order = append(order, boundedCand{pid: int(pid), bound: boxDist(pts[i], blo, bhi)})
			}
			slices.SortFunc(order, func(a, b boundedCand) int {
				if c := cmp.Compare(a.bound, b.bound); c != 0 {
					return c
				}
				return cmp.Compare(a.pid, b.pid)
			})
			best := Closest{PatchID: -1, Dist: math.Inf(1)}
			for _, cd := range order {
				// The bound holds in exact arithmetic and the box carries a
				// pad far above rounding; it must clear the best distance
				// by cullSlack so the skip also holds for computed distances.
				if cd.bound > best.Dist*(1+cullSlack) {
					break
				}
				u, v, y, dist := f.Patches[cd.pid].ClosestPoint(pts[i])
				if dist < best.Dist || dist == best.Dist && cd.pid < best.PatchID {
					best = Closest{PatchID: cd.pid, U: u, V: v, Y: y, Dist: dist}
				}
			}
			if best.Dist > dEps {
				// Outside every near zone: by construction of the inflated
				// boxes the true distance exceeds dEps; mark as far.
				best.PatchID = -1
			}
			out[i] = best
		}
	})
	return out
}

// closestCandidates is the collective stage of ClosestPoints: for every
// rank-local point, the sorted ids of the patches (of any rank) whose
// dEps-inflated box shares the point's hash cell.
func (f *Forest) closestCandidates(c *par.Comm, pts [][3]float64, dEps float64) [][]uint64 {
	p := c.Size()
	lo, hi := f.OwnerRange(p, c.Rank())

	// Grid spacing H: average inflated-box diagonal (paper §3.3 step b).
	var hSum float64
	var hCount int
	for i := lo; i < hi; i++ {
		blo, bhi := f.Patches[i].BBox(dEps)
		d := [3]float64{bhi[0] - blo[0], bhi[1] - blo[1], bhi[2] - blo[2]}
		hSum += patch.Norm(d)
		hCount++
	}
	stats := []float64{hSum, float64(hCount)}
	c.AllreduceSum(stats)
	H := 1.0
	if stats[1] > 0 {
		H = stats[0] / stats[1]
	}

	// Common grid origin: global min corner.
	origin := []float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	for i := lo; i < hi; i++ {
		blo, _ := f.Patches[i].BBox(dEps)
		for d := 0; d < 3; d++ {
			origin[d] = math.Min(origin[d], blo[d])
		}
	}
	for _, x := range pts {
		for d := 0; d < 3; d++ {
			origin[d] = math.Min(origin[d], x[d])
		}
	}
	c.AllreduceMin(origin)
	grid := morton.NewGrid([3]float64{origin[0] - H, origin[1] - H, origin[2] - H}, H)

	boxes := make([]BoxItem, 0, hi-lo)
	for i := lo; i < hi; i++ {
		blo, bhi := f.Patches[i].BBox(dEps)
		boxes = append(boxes, BoxItem{ID: uint64(i), Lo: blo, Hi: bhi})
	}
	points := make([]PointItem, len(pts))
	for i, x := range pts {
		points[i] = PointItem{ID: uint64(i), Pos: x}
	}
	return NearPairs(c, grid, boxes, points)
}

// boundedCand is a candidate patch of one query point with the distance
// from the point to the patch's enclosure box.
type boundedCand struct {
	pid   int
	bound float64
}

// boxDist is the distance from x to the box [lo, hi] (0 inside).
func boxDist(x, lo, hi [3]float64) float64 {
	var d2 float64
	for d := 0; d < 3; d++ {
		if e := lo[d] - x[d]; e > 0 {
			d2 += e * e
		} else if e := x[d] - hi[d]; e > 0 {
			d2 += e * e
		}
	}
	return math.Sqrt(d2)
}

const (
	// closestGrain is the point chunk of the Newton search loop (a point
	// costs a handful of Newton solves, tens of microseconds).
	closestGrain = 32
	// cullSlack is the relative margin by which a candidate's box bound must
	// clear the best distance before the candidate is skipped: rounding in
	// either distance is a few ulps, four orders of magnitude below it.
	cullSlack = 1e-12
)

// BoxItem registers an axis-aligned box (an inflated patch bounding box or
// a collision space-time bounding box) in the spatial hash.
type BoxItem struct {
	ID     uint64
	Lo, Hi [3]float64
}

// PointItem registers a query point in the spatial hash.
type PointItem struct {
	ID  uint64
	Pos [3]float64
}

// NearPairs collocates box cells and point cells on hashed owner ranks and
// returns, for each local point (in input order), the sorted IDs of all
// boxes (from any rank) whose cell set contains the point's cell. This is
// the communication pattern of paper §3.3 steps b–c (with key grouping by
// hashed owner in place of the Morton-ID sort; the grouping outcome is
// identical — equal keys meet on one rank).
func NearPairs(c *par.Comm, grid *morton.Grid, boxes []BoxItem, points []PointItem) [][]uint64 {
	p := c.Size()
	rank := uint64(c.Rank())

	// Stage 1: route (cellKey, payload) records to owner = key % p.
	// Payload packs: tag (1 = box, 0 = point) | origin rank | item ID.
	sendKeys := make([][]par.KV, p)
	for _, b := range boxes {
		for _, k := range grid.KeysInBox(b.Lo, b.Hi) {
			owner := int(k % uint64(p))
			sendKeys[owner] = append(sendKeys[owner], par.KV{Key: k, Val: 1<<63 | rank<<40 | b.ID})
		}
	}
	for _, pt := range points {
		k := grid.Key(pt.Pos)
		owner := int(k % uint64(p))
		sendKeys[owner] = append(sendKeys[owner], par.KV{Key: k, Val: rank<<40 | pt.ID})
	}
	recv := par.Alltoallv(c, sendKeys)

	// Stage 2: group by key; emit (pointOwner, pointID, boxID) pairs.
	type cellData struct {
		boxIDs []uint64
		pts    []uint64 // packed rank<<40 | id
	}
	cells := map[uint64]*cellData{}
	for _, chunk := range recv {
		for _, kv := range chunk {
			cd := cells[kv.Key]
			if cd == nil {
				cd = &cellData{}
				cells[kv.Key] = cd
			}
			if kv.Val>>63 == 1 {
				cd.boxIDs = append(cd.boxIDs, kv.Val&((1<<63)-1))
			} else {
				cd.pts = append(cd.pts, kv.Val)
			}
		}
	}
	pairOut := make([][]par.KV, p)
	for _, cd := range cells {
		if len(cd.boxIDs) == 0 || len(cd.pts) == 0 {
			continue
		}
		for _, pt := range cd.pts {
			owner := int(pt >> 40)
			pid := pt & ((1 << 40) - 1)
			for _, bid := range cd.boxIDs {
				pairOut[owner] = append(pairOut[owner], par.KV{Key: pid, Val: bid})
			}
		}
	}
	pairs := par.Alltoallv(c, pairOut)

	// Stage 3: assemble per-point candidate lists.
	out := make([][]uint64, len(points))
	for _, chunk := range pairs {
		for _, kv := range chunk {
			out[kv.Key] = append(out[kv.Key], kv.Val&((1<<40)-1))
		}
	}
	for i := range out {
		sort.Slice(out[i], func(a, b int) bool { return out[i][a] < out[i][b] })
		// Dedup (a box may straddle several cells, but each point has one
		// cell, so duplicates only appear if IDs collide across ranks).
		out[i] = dedup(out[i])
	}
	return out
}

func dedup(s []uint64) []uint64 {
	if len(s) < 2 {
		return s
	}
	j := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[j] = s[i]
			j++
		}
	}
	return s[:j]
}
