package collision

import (
	"sync"

	"rbcflow/internal/patch"
	"rbcflow/internal/quadrature"
	"rbcflow/internal/rbc"
	"rbcflow/internal/sht"
)

// MeshFromCell builds the triangle proxy mesh of an RBC from its grid
// points plus two pole vertices (the paper's 2,112-point collision mesh is
// the analogous upsampled grid; here the quadrature grid is reused, see
// DESIGN.md). Tri is the grid's shared topology and must not be written.
func MeshFromCell(id int, c *rbc.Cell) *Mesh {
	nv := c.Grid.NumPoints() + 2
	m := &Mesh{ID: id, Tri: cellTriangles(c.Grid)}
	m.V = make([][3]float64, nv)
	setVertices(m.V, c)
	m.VNext = make([][3]float64, nv)
	copy(m.VNext, m.V)
	// Vertex weights ~ surface area / vertex count (uniform approximation).
	area := c.Area()
	m.VertW = make([]float64, nv)
	for i := range m.VertW {
		m.VertW[i] = area / float64(nv)
	}
	return m
}

var (
	triMu    sync.Mutex
	triCache = map[[2]int][][3]int{} // by (Nlat, Nlon)
)

// cellTriangles returns the triangulation of a cell grid with pole vertices
// n and n+1 — lat-lon quads split in two, plus pole fans — built once per
// grid size and shared read-only by every mesh.
func cellTriangles(g *sht.Grid) [][3]int {
	triMu.Lock()
	defer triMu.Unlock()
	key := [2]int{g.Nlat, g.Nlon}
	if tri, ok := triCache[key]; ok {
		return tri
	}
	n := g.NumPoints()
	var tri [][3]int
	for i := 0; i+1 < g.Nlat; i++ {
		for j := 0; j < g.Nlon; j++ {
			j2 := (j + 1) % g.Nlon
			a, b := g.Index(i, j), g.Index(i, j2)
			cIdx, dIdx := g.Index(i+1, j), g.Index(i+1, j2)
			tri = append(tri, [3]int{a, b, cIdx}, [3]int{b, dIdx, cIdx})
		}
	}
	for j := 0; j < g.Nlon; j++ {
		j2 := (j + 1) % g.Nlon
		tri = append(tri, [3]int{n, g.Index(0, j2), g.Index(0, j)})
		tri = append(tri, [3]int{n + 1, g.Index(g.Nlat-1, j), g.Index(g.Nlat-1, j2)})
	}
	triCache[key] = tri
	return tri
}

// setVertices writes the cell's grid points into v[:n] and its two pole
// vertices, evaluated from the spherical-harmonic expansion, into v[n:].
func setVertices(v [][3]float64, c *rbc.Cell) {
	g := c.Grid
	n := g.NumPoints()
	co, w := sht.NewCoeffs(g.P), g.NewWork()
	for d := 0; d < 3; d++ {
		for k, x := range c.X[d] {
			v[k][d] = x
		}
		g.ForwardInto(c.X[d], co, w)
		v[n][d], v[n+1][d] = g.PoleValues(co)
	}
}

// holdsVertices reports whether v[:n] already equals the cell's grid
// points; the poles are a function of those, so v is then setVertices'
// output and the transforms need not run again.
func holdsVertices(v [][3]float64, c *rbc.Cell) bool {
	for d := 0; d < 3; d++ {
		for k, x := range c.X[d] {
			if v[k][d] != x {
				return false
			}
		}
	}
	return true
}

// SyncMeshFromCell refreshes V/VNext from current and candidate cell
// positions. next may be nil (VNext = V).
func SyncMeshFromCell(m *Mesh, cur, next *rbc.Cell) {
	if !holdsVertices(m.V, cur) { // they do right after MeshFromCell(id, cur)
		setVertices(m.V, cur)
	}
	if next == nil {
		copy(m.VNext, m.V)
		return
	}
	setVertices(m.VNext, next)
}

// ApplyMeshDisplacement transfers the collision displacement of the mesh
// back to the cell's candidate grid positions (grid vertices map 1:1; pole
// displacements are dropped — poles are not grid unknowns).
func ApplyMeshDisplacement(m *Mesh, before [][3]float64, cell *rbc.Cell) {
	g := cell.Grid
	n := g.NumPoints()
	for k := 0; k < n; k++ {
		for d := 0; d < 3; d++ {
			cell.X[d][k] += m.VNext[k][d] - before[k][d]
		}
	}
}

// MeshFromPatch builds the rigid triangle proxy of a vessel patch from an
// equispaced sample grid (the paper uses 484 = 22² equispaced points per
// patch; the density is configurable).
func MeshFromPatch(id int, pp *patch.Patch, samples int) *Mesh {
	s := quadrature.EquispacedSamples(samples)
	m := &Mesh{ID: id, Rigid: true}
	for i := 0; i < samples; i++ {
		for j := 0; j < samples; j++ {
			m.V = append(m.V, pp.Eval(s[i], s[j]))
		}
	}
	for i := 0; i+1 < samples; i++ {
		for j := 0; j+1 < samples; j++ {
			a := i*samples + j
			b := i*samples + j + 1
			c := (i+1)*samples + j
			d := (i+1)*samples + j + 1
			m.Tri = append(m.Tri, [3]int{a, b, c}, [3]int{b, d, c})
		}
	}
	m.VertW = make([]float64, len(m.V))
	area := pp.Area()
	for i := range m.VertW {
		m.VertW[i] = area / float64(len(m.V))
	}
	m.VNext = m.V
	return m
}
