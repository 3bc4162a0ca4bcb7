package morton

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= 0x1fffff
		y &= 0x1fffff
		z &= 0x1fffff
		ix, iy, iz := Decode(Encode(x, y, z))
		return ix == x && iy == y && iz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeOrderingLocality(t *testing.T) {
	// Points in the same cell share keys; adjacent cells differ.
	g := NewGrid([3]float64{0, 0, 0}, 1.0)
	a := g.Key([3]float64{0.2, 0.3, 0.4})
	b := g.Key([3]float64{0.9, 0.01, 0.99})
	if a != b {
		t.Fatalf("same-cell keys differ: %x vs %x", a, b)
	}
	c := g.Key([3]float64{1.2, 0.3, 0.4})
	if a == c {
		t.Fatal("different cells share a key")
	}
}

func TestCellClamping(t *testing.T) {
	g := NewGrid([3]float64{0, 0, 0}, 1.0)
	ix, iy, iz := g.Cell([3]float64{-5, -5, -5})
	if ix != 0 || iy != 0 || iz != 0 {
		t.Fatalf("negative coords not clamped: %d %d %d", ix, iy, iz)
	}
	ix, _, _ = g.Cell([3]float64{1e12, 0, 0})
	if ix != (1<<MaxLevel)-1 {
		t.Fatalf("huge coord not clamped: %d", ix)
	}
}

func TestKeysInBoxCoverage(t *testing.T) {
	g := NewGrid([3]float64{0, 0, 0}, 1.0)
	keys := g.KeysInBox([3]float64{0.5, 0.5, 0.5}, [3]float64{2.5, 1.5, 0.9})
	// Cells x in {0,1,2}, y in {0,1}, z in {0}: 6 keys.
	if len(keys) != 6 {
		t.Fatalf("expected 6 keys, got %d", len(keys))
	}
	seen := map[uint64]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	if len(seen) != 6 {
		t.Fatal("duplicate keys in box enumeration")
	}
	// A point inside the box hashes to one of the keys.
	if !seen[g.Key([3]float64{1.7, 1.2, 0.3})] {
		t.Fatal("interior point key missing from box keys")
	}
}

func TestNearPointsShareOrNeighborKeys(t *testing.T) {
	// Property: two points within distance h of each other, hashed on a grid
	// of spacing 2h, land in cells whose integer coords differ by at most 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := 0.1
		g := NewGrid([3]float64{-10, -10, -10}, 2*h)
		p := [3]float64{rng.Float64()*10 - 5, rng.Float64()*10 - 5, rng.Float64()*10 - 5}
		q := p
		for d := 0; d < 3; d++ {
			q[d] += (rng.Float64()*2 - 1) * h / 2
		}
		px, py, pz := g.Cell(p)
		qx, qy, qz := g.Cell(q)
		near := func(a, b uint32) bool {
			d := int64(a) - int64(b)
			return d >= -1 && d <= 1
		}
		return near(px, qx) && near(py, qy) && near(pz, qz)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMortonSortGroupsSpatially(t *testing.T) {
	// Sorting by Morton key groups points of the same cell contiguously.
	g := NewGrid([3]float64{0, 0, 0}, 1.0)
	rng := rand.New(rand.NewSource(2))
	type pt struct {
		key uint64
		box int
	}
	var pts []pt
	for b := 0; b < 8; b++ {
		ox, oy, oz := float64(b&1)*3, float64(b>>1&1)*3, float64(b>>2&1)*3
		for i := 0; i < 20; i++ {
			p := [3]float64{ox + rng.Float64()*0.9, oy + rng.Float64()*0.9, oz + rng.Float64()*0.9}
			pts = append(pts, pt{g.Key(p), b})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].key < pts[j].key })
	// All keys of each original cluster must be contiguous.
	firstIdx := map[int]int{}
	lastIdx := map[int]int{}
	for i, p := range pts {
		if _, ok := firstIdx[p.box]; !ok {
			firstIdx[p.box] = i
		}
		lastIdx[p.box] = i
	}
	for b := 0; b < 8; b++ {
		if lastIdx[b]-firstIdx[b] != 19 {
			t.Fatalf("cluster %d not contiguous after Morton sort", b)
		}
	}
}
