package collision

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rbcflow/internal/rbc"
)

// perturbedBiconcave is a rotated biconcave cell with a smooth bump on each
// coordinate, so that no symmetry of the rest shape zeroes a pole value.
func perturbedBiconcave(p int) *rbc.Cell {
	rot := rbc.RandomRotation(rand.New(rand.NewSource(3)))
	c := rbc.NewBiconcaveCell(p, 1, [3]float64{0.4, -1.1, 2.3}, &rot)
	g := c.Grid
	for i := 0; i < g.Nlat; i++ {
		for j := 0; j < g.Nlon; j++ {
			k := g.Index(i, j)
			bump := float64(0.04*math.Sin(2*g.Theta[i])) * math.Cos(g.Phi[j]+0.3)
			for d := 0; d < 3; d++ {
				c.X[d][k] += float64(bump * float64(d+1))
			}
		}
	}
	return c
}

// meshDigest hashes the bits of a mesh's vertices, poles included, and of
// its vertex weights.
func meshDigest(m *Mesh) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, v := range m.V {
		put(v[0])
		put(v[1])
		put(v[2])
	}
	for _, w := range m.VertW {
		put(w)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMeshFromCellDigestsPinned pins MeshFromCell's vertices (the grid
// points and the two poles evaluated from the expansion) and its vertex
// weights (the cell's area over the vertex count) at orders 3, 4, 6 and 8,
// and SyncMeshFromCell's candidate vertices for the same cell. The digests
// were recorded while the poles came from sht.EvalAt and the area from a
// full ComputeGeometry. They are amd64 digests: elsewhere the compiler may
// fuse the multiply-adds of math's Sin and Cos, which build the grid.
func TestMeshFromCellDigestsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	want := map[int]string{
		3: "886d8983d55fef41ed3a8269d8f14a64bf982eb0ad2fe6a5686f256177c7c25a",
		4: "a74ebd5440dcb3182440897756a934f7c990368d3c49f1bb65a75bc60ec80e6e",
		6: "e0f488f29f7cf0f99b423688254eb227feb424e0f5202228813e9207a9c40da8",
		8: "86ef1edcd099bf0229963d4a0f2c40cd9ecb4b74e93fc8ea92be31bd172d7e71",
	}
	for _, p := range []int{3, 4, 6, 8} {
		c := perturbedBiconcave(p)
		m := MeshFromCell(0, c)
		if got := meshDigest(m); got != want[p] {
			t.Errorf("p=%d: mesh digest %s, want %s", p, got, want[p])
		}
		SyncMeshFromCell(m, rbc.NewBiconcaveCell(p, 1, [3]float64{}, nil), c)
		m.V = m.VNext
		if got := meshDigest(m); got != want[p] {
			t.Errorf("p=%d: synced candidate digest %s, want %s", p, got, want[p])
		}
	}
}
