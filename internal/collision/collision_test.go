package collision

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"rbcflow/internal/la"
	"rbcflow/internal/par"
	"rbcflow/internal/patch"
	"rbcflow/internal/rbc"
)

func TestPointTriDist(t *testing.T) {
	a := [3]float64{0, 0, 0}
	b := [3]float64{1, 0, 0}
	c := [3]float64{0, 1, 0}
	// Above the interior.
	d, q := pointTriDist([3]float64{0.2, 0.2, 0.5}, a, b, c)
	if math.Abs(d-0.5) > 1e-12 || math.Abs(q[0]-0.2) > 1e-12 {
		t.Fatalf("interior: d=%v q=%v", d, q)
	}
	// Closest to vertex a.
	d, q = pointTriDist([3]float64{-1, -1, 0}, a, b, c)
	if math.Abs(d-math.Sqrt2) > 1e-12 || q != a {
		t.Fatalf("vertex: d=%v q=%v", d, q)
	}
	// Closest to edge ab.
	d, q = pointTriDist([3]float64{0.5, -2, 0}, a, b, c)
	if math.Abs(d-2) > 1e-12 || math.Abs(q[0]-0.5) > 1e-12 {
		t.Fatalf("edge: d=%v q=%v", d, q)
	}
}

func TestMeshFromCellClosed(t *testing.T) {
	cell := rbc.NewSphereCell(8, 1, [3]float64{0, 0, 0})
	m := MeshFromCell(3, cell)
	if m.ID != 3 || m.Rigid {
		t.Fatal("mesh metadata wrong")
	}
	// Euler characteristic of a closed surface: V - E + F = 2, with
	// E = 3F/2 for a triangulation: V - F/2 = 2.
	nv := len(m.V)
	nf := len(m.Tri)
	if nv-nf/2 != 2 {
		t.Fatalf("not a closed triangulation: V=%d F=%d", nv, nf)
	}
	// Vertex weights sum to the cell area.
	var sum float64
	for _, w := range m.VertW {
		sum += w
	}
	if math.Abs(sum-cell.Area()) > 1e-9 {
		t.Fatalf("weights sum %v area %v", sum, cell.Area())
	}
}

func TestMeshFromPatch(t *testing.T) {
	pp := patch.FromFunc(6, func(u, v float64) [3]float64 {
		return [3]float64{u, v, 0}
	})
	m := MeshFromPatch(9, pp, 5)
	if !m.Rigid || len(m.V) != 25 || len(m.Tri) != 32 {
		t.Fatalf("patch mesh: rigid=%v V=%d T=%d", m.Rigid, len(m.V), len(m.Tri))
	}
}

func TestSpaceTimeBBox(t *testing.T) {
	cell := rbc.NewSphereCell(4, 1, [3]float64{0, 0, 0})
	m := MeshFromCell(0, cell)
	// Move candidate positions: box must cover both.
	for i := range m.VNext {
		m.VNext[i][0] += 2
	}
	lo, hi := m.SpaceTimeBBox(0.1)
	if lo[0] > -1 || hi[0] < 3 {
		t.Fatalf("space-time box wrong: %v %v", lo, hi)
	}
}

func TestCandidatePairsDetectsOverlap(t *testing.T) {
	for _, p := range []int{1, 2} {
		par.Run(p, par.SKX(), func(c *par.Comm) {
			var meshes []*Mesh
			if c.Rank() == 0 {
				// Two nearly-touching spheres and one far sphere.
				meshes = append(meshes,
					MeshFromCell(0, rbc.NewSphereCell(4, 1, [3]float64{0, 0, 0})),
					MeshFromCell(1, rbc.NewSphereCell(4, 1, [3]float64{2.05, 0, 0})))
			}
			if c.Rank() == p-1 {
				meshes = append(meshes, MeshFromCell(2, rbc.NewSphereCell(4, 1, [3]float64{10, 10, 10})))
			}
			pairs := CandidatePairs(c, meshes, 0.2)
			found := map[[2]int]bool{}
			for _, pr := range pairs {
				found[pr] = true
			}
			if c.Rank() == 0 {
				if !found[[2]int{0, 1}] && !found[[2]int{1, 0}] {
					t.Errorf("p=%d: touching pair not detected: %v", p, pairs)
				}
				for pr := range found {
					if pr[0] == 2 || pr[1] == 2 {
						t.Errorf("p=%d: far mesh in pairs: %v", p, pairs)
					}
				}
			}
		})
	}
}

func TestFindContactsGap(t *testing.T) {
	a := MeshFromCell(0, rbc.NewSphereCell(6, 1, [3]float64{0, 0, 0}))
	b := MeshFromCell(1, rbc.NewSphereCell(6, 1, [3]float64{2.05, 0, 0}))
	byID := map[int]*Mesh{0: a, 1: b}
	cons := FindContacts([][2]int{{0, 1}}, byID, 0.2)
	if len(cons) == 0 {
		t.Fatal("no contacts found for gap 0.05 < 0.2")
	}
	for _, con := range cons {
		if con.Gap <= 0 || con.Gap > 0.2 {
			t.Fatalf("gap out of range: %v", con.Gap)
		}
		// Normal should push A's vertex in -x (away from B).
		if con.Normal[0] > 0 {
			t.Fatalf("normal direction wrong: %v", con.Normal)
		}
	}
}

func TestSolveLCPSimple(t *testing.T) {
	// 1D: B = [2], q = [-1]: λ = 0.5 restores w = 0.
	B := func(dst, x []float64) { dst[0] = 2 * x[0] }
	lam := SolveLCP(B, []float64{-1}, 10)
	if math.Abs(lam[0]-0.5) > 1e-9 {
		t.Fatalf("λ = %v want 0.5", lam[0])
	}
	// Inactive constraint: q >= 0 means λ = 0.
	lam = SolveLCP(B, []float64{0.3}, 10)
	if lam[0] != 0 {
		t.Fatalf("inactive λ = %v", lam[0])
	}
}

func TestSolveLCPComplementarity(t *testing.T) {
	// Random SPD B; verify λ ≥ 0, w = Bλ+q ≥ 0, λ·w ≈ 0.
	m := 6
	Bm := la.NewDense(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j {
				Bm.Set(i, j, 2)
			} else {
				Bm.Set(i, j, 0.1)
			}
		}
	}
	q := []float64{-1, -0.5, 0.2, -0.1, 0.4, -2}
	lam := SolveLCP(Bm.MulVec, q, 30)
	w := make([]float64, m)
	Bm.MulVec(w, lam)
	for i := range w {
		w[i] += q[i]
		if lam[i] < -1e-12 || w[i] < -1e-8 {
			t.Fatalf("feasibility violated: λ=%v w=%v", lam, w)
		}
		if math.Abs(lam[i]*w[i]) > 1e-8 {
			t.Fatalf("complementarity violated at %d: λ=%v w=%v", i, lam[i], w[i])
		}
	}
}

func TestResolveSeparatesCells(t *testing.T) {
	// Two overlapping spheres must be pushed apart to MinSep.
	par.Run(1, par.SKX(), func(c *par.Comm) {
		cellA := rbc.NewSphereCell(6, 1, [3]float64{0, 0, 0})
		cellB := rbc.NewSphereCell(6, 1, [3]float64{2.2, 0, 0}) // collision-free start
		a := MeshFromCell(0, cellA)
		b := MeshFromCell(1, cellB)
		for i := range a.VNext {
			a.VNext[i][0] += 0.3 // candidate step overlaps B by 0.1
		}
		byID := map[int]*Mesh{0: a, 1: b}
		local := map[int]bool{0: true, 1: true}
		pairs := [][2]int{{0, 1}, {1, 0}}
		contacts, iters := Resolve(c, pairs, byID, local, ResolveParams{
			MinSep: 0.05, Mobility: 0.5, MaxNCP: 7,
		})
		if contacts == 0 {
			t.Fatal("no contacts resolved")
		}
		if iters < 1 {
			t.Fatal("no NCP iterations")
		}
		// After resolution the vertex-surface distance must respect ~MinSep.
		cons := FindContacts(pairs, byID, 0.04)
		if len(cons) > 0 {
			t.Fatalf("still %d interpenetrating contacts after resolve", len(cons))
		}
	})
}

func TestResolveAgainstRigidWall(t *testing.T) {
	// Start collision-free (the scheme's contract, paper §2.2), then move
	// the candidate positions into the wall as a time step would.
	par.Run(1, par.SKX(), func(c *par.Comm) {
		cell := rbc.NewSphereCell(6, 0.5, [3]float64{0, 0, 0.55}) // bottom at z=0.05
		wall := MeshFromPatch(100, patch.FromFunc(4, func(u, v float64) [3]float64 {
			return [3]float64{2 * u, 2 * v, 0}
		}), 9)
		m := MeshFromCell(0, cell)
		for i := range m.VNext {
			m.VNext[i][2] -= 0.1 // candidate step dips below the wall
		}
		byID := map[int]*Mesh{0: m, 100: wall}
		local := map[int]bool{0: true}
		contacts, _ := Resolve(c, [][2]int{{0, 100}}, byID, local, ResolveParams{
			MinSep: 0.02, Mobility: 0.5, MaxNCP: 7,
		})
		if contacts == 0 {
			t.Fatal("no wall contacts detected")
		}
		// Wall must not move; cell vertices must end above the separation.
		for _, v := range wall.VNext {
			if v[2] != 0 {
				t.Fatal("rigid wall moved")
			}
		}
		for _, v := range m.VNext {
			if v[2] < 0.015 {
				t.Fatalf("vertex still below wall separation: z=%v", v[2])
			}
		}
	})
}

// Property: pointTriDist never exceeds the distance to any vertex and is
// invariant under vertex cyclic permutation.
func TestQuickPointTriDistProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rv := func() [3]float64 {
			return [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		p, a, b, c := rv(), rv(), rv(), rv()
		d1, _ := pointTriDist(p, a, b, c)
		d2, _ := pointTriDist(p, b, c, a)
		d3, _ := pointTriDist(p, c, a, b)
		if math.Abs(d1-d2) > 1e-9 || math.Abs(d1-d3) > 1e-9 {
			return false
		}
		for _, v := range [][3]float64{a, b, c} {
			dv := norm3(sub(p, v))
			if d1 > dv+1e-12 {
				return false
			}
		}
		return d1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// findContactsBrute is the narrow phase with nothing culled and nothing
// threaded: every vertex of A is measured against every triangle of B.
func findContactsBrute(pairs [][2]int, byID map[int]*Mesh, minSep float64) []Contact {
	var out []Contact
	for _, pr := range pairs {
		a, okA := byID[pr[0]]
		b, okB := byID[pr[1]]
		if !okA || !okB || a.Rigid {
			continue
		}
		for vi, p := range a.VNext {
			best := math.Inf(1)
			var bestQ, bestN [3]float64
			for _, tri := range b.Tri {
				d, q := pointTriDist(p, b.VNext[tri[0]], b.VNext[tri[1]], b.VNext[tri[2]])
				if d < best {
					best, bestQ = d, q
					bestN = cross3(sub(b.VNext[tri[1]], b.VNext[tri[0]]), sub(b.VNext[tri[2]], b.VNext[tri[0]]))
				}
			}
			nn := norm3(bestN)
			if best > 4*minSep || nn < 1e-14 {
				continue
			}
			n := scale(bestN, 1/nn)
			if dot3(sub(a.V[vi], bestQ), n) < 0 {
				n = scale(n, -1)
			}
			if signed := dot3(sub(p, bestQ), n); minSep-signed > sepSlack(p, minSep) {
				out = append(out, Contact{MeshA: pr[0], MeshB: pr[1], Vertex: vi,
					Gap: minSep - signed, Normal: n, Weight: a.VertW[vi]})
			}
		}
	}
	return out
}

// The culled, threaded narrow phase returns the brute-force contact list —
// same contacts, same bits, same order — for any core count.
func TestFindContactsMatchesBruteForce(t *testing.T) {
	const minSep = 0.05
	rng := rand.New(rand.NewSource(7))
	cellAt := func(id int, ctr [3]float64, rot *[9]float64, push [3]float64) *Mesh {
		m := MeshFromCell(id, rbc.NewBiconcaveCell(4, 1, ctr, rot))
		for i := range m.VNext {
			m.VNext[i] = add(m.VNext[i], push)
		}
		return m
	}
	r1, r3 := rbc.RandomRotation(rng), rbc.RandomRotation(rng)
	wall := MeshFromPatch(100, patch.FromFunc(4, func(u, v float64) [3]float64 {
		return [3]float64{6*u - 3, 6*v - 3, -0.45 + 0.1*u*v}
	}), 8)
	byID := map[int]*Mesh{
		0:   cellAt(0, [3]float64{0, 0, 0}, nil, [3]float64{0, 0, -0.1}), // dips towards the wall
		1:   cellAt(1, [3]float64{9, 0, 0}, &r1, [3]float64{}),           // far from everything
		2:   cellAt(2, [3]float64{0, 2.5, 0}, nil, [3]float64{}),         // clear of 0
		4:   cellAt(4, [3]float64{0, 4.53, 0}, nil, [3]float64{}),        // rim to rim with 2, gap < MinSep
		3:   cellAt(3, [3]float64{0.9, 0, 0.5}, &r3, [3]float64{}),       // interpenetrates 0
		100: wall,
	}
	cases := map[string][][2]int{
		"far":          {{0, 1}, {1, 0}},
		"near":         {{2, 4}, {4, 2}},
		"overlapping":  {{0, 3}, {3, 0}},
		"cell-on-wall": {{0, 100}, {100, 0}},
		"many": {{0, 1}, {3, 0}, {0, 100}, {2, 0}, {1, 100}, {0, 3}, {7, 0}, {2, 3},
			{3, 2}, {3, 100}, {0, 2}, {1, 2}, {4, 2}, {2, 4}},
	}
	// Enough pairs to span several pool chunks.
	var long [][2]int
	for i := 0; i < 40; i++ {
		long = append(long, cases["many"]...)
	}
	cases["chunks"] = long

	total := 0
	for name, pairs := range cases {
		want := findContactsBrute(pairs, byID, minSep)
		total += len(want)
		t.Logf("%s: %d pairs, %d contacts", name, len(pairs), len(want))
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got := FindContacts(pairs, byID, minSep)
			runtime.GOMAXPROCS(prev)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at GOMAXPROCS %d: %d contacts, brute force has %d (or they differ in bits or order)",
					name, procs, len(got), len(want))
			}
		}
		if name == "far" && want != nil {
			t.Errorf("far pair produced contacts: %v", want)
		}
		if name != "far" && len(want) == 0 {
			t.Errorf("%s: the reference found no contact; the case tests nothing", name)
		}
	}
	if total == 0 {
		t.Fatal("no case produced a contact")
	}
}

// SyncMeshFromCell after MeshFromCell on the same cell keeps the vertices
// MeshFromCell computed, and recomputes them for a cell that moved.
func TestSyncMeshFromCellTracksCell(t *testing.T) {
	cell := rbc.NewBiconcaveCell(4, 1, [3]float64{1, 2, 3}, nil)
	m := MeshFromCell(0, cell)
	fresh := append([][3]float64(nil), m.V...)
	next := cell.Copy()
	for k := range next.X[0] {
		next.X[0][k] += 0.25
	}
	SyncMeshFromCell(m, cell, next)
	if !reflect.DeepEqual(m.V, fresh) {
		t.Fatal("V changed although the cell did not")
	}
	if !reflect.DeepEqual(m.VNext, MeshFromCell(0, next).V) {
		t.Fatal("VNext is not the candidate cell's vertex set")
	}
	SyncMeshFromCell(m, next, nil)
	if !reflect.DeepEqual(m.V, m.VNext) || !reflect.DeepEqual(m.V, MeshFromCell(0, next).V) {
		t.Fatal("V did not follow the cell to its new position")
	}
}

// TestPushToMinSepResolvesInOneIteration: a vertex that dips into the
// separation zone of a tilted wall triangle at coordinates of the torus's
// size is pushed by the NCP loop to MinSep, within the rounding of its
// coordinates; that shortfall is not a contact, so every trial resolves in
// one push and the loop's second pass finds nothing to do.
func TestPushToMinSepResolvesInOneIteration(t *testing.T) {
	const minSep = 0.06
	rng := rand.New(rand.NewSource(28))
	unit := func(v [3]float64) [3]float64 { return scale(v, 1/norm3(v)) }
	gauss := func() [3]float64 { return [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()} }
	par.Run(1, par.SKX(), func(c *par.Comm) {
		for trial := 0; trial < 500; trial++ {
			n := unit(gauss())
			e1 := unit(cross3(n, gauss()))
			e2 := cross3(n, e1)
			o := [3]float64{2 + 2*rng.Float64(), 4*rng.Float64() - 2, 2*rng.Float64() - 1}
			tri := [][3]float64{add(o, scale(e1, 2)), add(o, add(scale(e1, -1), scale(e2, 2))), add(o, add(scale(e1, -1), scale(e2, -2)))}
			wall := &Mesh{ID: 100, Rigid: true, V: tri, VNext: tri, Tri: [][3]int{{0, 1, 2}}, VertW: []float64{1, 1, 1}}
			// Vertex 0 starts 0.1 off the wall and ends depth·minSep off
			// it, depth in (−0.5, 1); vertices 1 and 2 stay far away.
			tang := add(scale(e1, 0.3*rng.Float64()), scale(e2, 0.3*rng.Float64()))
			p0 := add(o, add(tang, scale(n, 0.1)))
			p1 := add(o, add(tang, scale(n, minSep*(1.5*rng.Float64()-0.5))))
			far1, far2 := add(p0, scale(n, 1)), add(p0, add(scale(n, 1), e1))
			cell := &Mesh{ID: 0, V: [][3]float64{p0, far1, far2}, VNext: [][3]float64{p1, far1, far2},
				Tri: [][3]int{{0, 1, 2}}, VertW: []float64{1, 1, 1}}
			byID := map[int]*Mesh{0: cell, 100: wall}
			pairs := [][2]int{{0, 100}}
			contacts, iters := Resolve(c, pairs, byID, map[int]bool{0: true}, ResolveParams{MinSep: minSep, Mobility: 0.5, MaxNCP: 7})
			if contacts != 1 || iters != 2 {
				t.Fatalf("trial %d: %d contacts in %d NCP iterations, want 1 contact resolved by one push (2 iterations)", trial, contacts, iters)
			}
			if cons := FindContacts(pairs, byID, minSep); len(cons) != 0 {
				t.Fatalf("trial %d: %d contacts after the push, gap %g", trial, len(cons), cons[0].Gap)
			}
		}
	})
}
