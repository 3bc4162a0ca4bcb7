package fmm

import (
	"math"
	"sort"

	"rbcflow/internal/kernels"
	"rbcflow/internal/telemetry"
	"rbcflow/internal/trace"
)

// boxKey packs integer box coordinates at a level into a single key.
func boxKey(ix, iy, iz uint32) uint64 {
	return uint64(ix)<<42 | uint64(iy)<<21 | uint64(iz)
}

func keyCoords(k uint64) (ix, iy, iz uint32) {
	return uint32(k >> 42 & 0x1fffff), uint32(k >> 21 & 0x1fffff), uint32(k & 0x1fffff)
}

type box struct {
	ix, iy, iz uint32
	level      int
	srcLo      int // leaf source range in the tree's sorted source arrays
	srcHi      int
	multipole  []float64
	local      []float64
}

// octant is the box's position among its parent's children.
func (b *box) octant() int { return int(b.ix&1) | int(b.iy&1)<<1 | int(b.iz&1)<<2 }

type tree struct {
	cfg    Config
	depth  int
	center [3]float64
	halfW  float64
	levels []map[uint64]*box
	// keys[l] are the occupied box keys of level l in sorted order: the one
	// order in which every pass walks a level.
	keys   [][]uint64
	srcPos [][3]float64
	srcQ   []float64
	ci     *chebInterp
}

// Config configures an FMM evaluation.
type Config struct {
	Kernel kernels.Kernel
	// Order is the 1D Chebyshev interpolation order (default 4; higher for
	// accuracy studies).
	Order int
	// LeafSize is the target number of sources per leaf (default 64).
	LeafSize int
	// DirectBelow forces direct summation when nSrc*nTrg is at or below this
	// threshold (default 16384). Direct summation is exact.
	DirectBelow int
	// Tel, when non-nil, receives per-pass spans (fmm.tree.build,
	// fmm.upward, fmm.downward, fmm.direct) from every evaluation. Nil
	// costs nothing on the hot path.
	Tel *telemetry.Registry
	// Health, when non-nil, guards every evaluation's output for NaN/Inf at
	// the fmm boundary (check "fmm.out") — a non-finite source strength or a
	// degenerate tree geometry surfaces here before it poisons the solve.
	Health *trace.Health
}

func (c *Config) defaults() {
	if c.Order == 0 {
		c.Order = 4
	}
	if c.LeafSize == 0 {
		c.LeafSize = 64
	}
	if c.DirectBelow == 0 {
		c.DirectBelow = 16384
	}
}

// boxWidth returns the box edge length at a level.
func (t *tree) boxWidth(level int) float64 {
	return 2 * t.halfW / float64(int(1)<<level)
}

// boxCenter returns the center of box (ix,iy,iz) at a level.
func (t *tree) boxCenter(level int, ix, iy, iz uint32) [3]float64 {
	w := t.boxWidth(level)
	lo := [3]float64{t.center[0] - t.halfW, t.center[1] - t.halfW, t.center[2] - t.halfW}
	return [3]float64{
		lo[0] + w*(float64(ix)+0.5),
		lo[1] + w*(float64(iy)+0.5),
		lo[2] + w*(float64(iz)+0.5),
	}
}

// leafOf returns the leaf coordinates of point p (clamped into the cube).
func (t *tree) leafOf(p [3]float64) (uint32, uint32, uint32) {
	n := uint32(1) << uint(t.depth)
	w := t.boxWidth(t.depth)
	f := func(v, lo float64) uint32 {
		c := math.Floor((v - lo) / w)
		if c < 0 {
			c = 0
		}
		if c > float64(n-1) {
			c = float64(n - 1)
		}
		return uint32(c)
	}
	return f(p[0], t.center[0]-t.halfW), f(p[1], t.center[1]-t.halfW), f(p[2], t.center[2]-t.halfW)
}

// buildTree sorts sources into leaves and creates occupied boxes with their
// ancestors. bbox must contain all sources and targets.
func buildTree(cfg Config, lo, hi [3]float64, srcPos [][3]float64, srcQ []float64, ci *chebInterp) *tree {
	t := &tree{cfg: cfg, ci: ci}
	// Cube hull of the bounding box, slightly inflated.
	for d := 0; d < 3; d++ {
		t.center[d] = (lo[d] + hi[d]) / 2
		if half := (hi[d] - lo[d]) / 2; half > t.halfW {
			t.halfW = half
		}
	}
	t.halfW *= 1.0000001
	if t.halfW == 0 {
		t.halfW = 1
	}
	n := len(srcPos)
	depth := 0
	for (1<<(3*depth))*cfg.LeafSize < n && depth < 8 {
		depth++
	}
	t.depth = depth
	t.levels = make([]map[uint64]*box, depth+1)
	for l := range t.levels {
		t.levels[l] = map[uint64]*box{}
	}

	// Sort sources by leaf key.
	ds := cfg.Kernel.SrcDim()
	type srcRef struct {
		key uint64
		idx int
	}
	refs := make([]srcRef, n)
	for i, p := range srcPos {
		ix, iy, iz := t.leafOf(p)
		refs[i] = srcRef{boxKey(ix, iy, iz), i}
	}
	sort.Slice(refs, func(a, b int) bool { return refs[a].key < refs[b].key })
	t.srcPos = make([][3]float64, n)
	t.srcQ = make([]float64, n*ds)
	for newIdx, r := range refs {
		t.srcPos[newIdx] = srcPos[r.idx]
		copy(t.srcQ[newIdx*ds:(newIdx+1)*ds], srcQ[r.idx*ds:(r.idx+1)*ds])
	}
	// Create occupied leaves with contiguous source ranges.
	for i := 0; i < n; {
		j := i
		for j < n && refs[j].key == refs[i].key {
			j++
		}
		ix, iy, iz := keyCoords(refs[i].key)
		b := &box{ix: ix, iy: iy, iz: iz, level: depth, srcLo: i, srcHi: j}
		t.levels[depth][refs[i].key] = b
		i = j
	}
	// Ancestors.
	for l := depth; l > 0; l-- {
		for k := range t.levels[l] {
			ix, iy, iz := keyCoords(k)
			pk := boxKey(ix/2, iy/2, iz/2)
			if _, ok := t.levels[l-1][pk]; !ok {
				t.levels[l-1][pk] = &box{ix: ix / 2, iy: iy / 2, iz: iz / 2, level: l - 1}
			}
		}
	}
	t.keys = make([][]uint64, depth+1)
	for l, lv := range t.levels {
		keys := make([]uint64, 0, len(lv))
		for k := range lv {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		t.keys[l] = keys
	}
	return t
}

// boxNodes writes the interpolation nodes of box (ix,iy,iz) at a level into
// dst (length nn).
func (t *tree) boxNodes(dst [][3]float64, level int, ix, iy, iz uint32) {
	c := t.boxCenter(level, ix, iy, iz)
	half := t.boxWidth(level) / 2
	for j, xi := range t.ci.node3 {
		dst[j] = [3]float64{c[0] + xi[0]*half, c[1] + xi[1]*half, c[2] + xi[2]*half}
	}
}

// interactionList calls fn for every occupied box in b's interaction list
// (same-level boxes that are children of the parent's neighbors but are not
// adjacent to b).
func (t *tree) interactionList(b *box, fn func(src *box)) {
	level := b.level
	if level == 0 {
		return
	}
	lv := t.levels[level]
	n := int64(1) << uint(level)
	px, py, pz := int64(b.ix)/2, int64(b.iy)/2, int64(b.iz)/2
	for dx := -3; dx <= 3; dx++ {
		cx := int64(b.ix) + int64(dx)
		if cx < 0 || cx >= n {
			continue
		}
		for dy := -3; dy <= 3; dy++ {
			cy := int64(b.iy) + int64(dy)
			if cy < 0 || cy >= n {
				continue
			}
			for dz := -3; dz <= 3; dz++ {
				cz := int64(b.iz) + int64(dz)
				if cz < 0 || cz >= n {
					continue
				}
				// Exclude adjacent boxes (handled at finer level or P2P).
				if dx >= -1 && dx <= 1 && dy >= -1 && dy <= 1 && dz >= -1 && dz <= 1 {
					continue
				}
				// Must be child of parent's neighbor.
				if abs64(cx/2-px) > 1 || abs64(cy/2-py) > 1 || abs64(cz/2-pz) > 1 {
					continue
				}
				if src, ok := lv[boxKey(uint32(cx), uint32(cy), uint32(cz))]; ok {
					fn(src)
				}
			}
		}
	}
}

// neighborLeaves calls fn for every occupied leaf adjacent to (or equal to)
// leaf coordinates (ix,iy,iz).
func (t *tree) neighborLeaves(ix, iy, iz uint32, fn func(src *box)) {
	lv := t.levels[t.depth]
	n := int64(1) << uint(t.depth)
	for dx := -1; dx <= 1; dx++ {
		cx := int64(ix) + int64(dx)
		if cx < 0 || cx >= n {
			continue
		}
		for dy := -1; dy <= 1; dy++ {
			cy := int64(iy) + int64(dy)
			if cy < 0 || cy >= n {
				continue
			}
			for dz := -1; dz <= 1; dz++ {
				cz := int64(iz) + int64(dz)
				if cz < 0 || cz >= n {
					continue
				}
				if src, ok := lv[boxKey(uint32(cx), uint32(cy), uint32(cz))]; ok {
					fn(src)
				}
			}
		}
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
