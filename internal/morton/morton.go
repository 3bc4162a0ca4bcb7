// Package morton provides 3D Morton (Z-order) codes and the spatial hash
// grids used by the parallel closest-point search (paper §3.3) and by the
// collision candidate detection (paper §4, Fig. 3). Points are quantized on
// a uniform grid of spacing H and keyed by the interleaved bits of their
// cell coordinates, so that spatially close samples receive equal or nearby
// sorting keys.
package morton

import "math"

// MaxLevel is the number of bits per dimension in a Morton key (3*21 = 63
// bits total, fitting an uint64).
const MaxLevel = 21

// spread inserts two zero bits between each of the low 21 bits of v.
func spread(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// compact is the inverse of spread.
func compact(v uint64) uint64 {
	v &= 0x1249249249249249
	v = (v ^ v>>2) & 0x10c30c30c30c30c3
	v = (v ^ v>>4) & 0x100f00f00f00f00f
	v = (v ^ v>>8) & 0x1f0000ff0000ff
	v = (v ^ v>>16) & 0x1f00000000ffff
	v = (v ^ v>>32) & 0x1fffff
	return v
}

// Encode interleaves the low 21 bits of the integer cell coordinates.
func Encode(ix, iy, iz uint32) uint64 {
	return spread(uint64(ix)) | spread(uint64(iy))<<1 | spread(uint64(iz))<<2
}

// Decode recovers the integer cell coordinates from a Morton key.
func Decode(key uint64) (ix, iy, iz uint32) {
	return uint32(compact(key)), uint32(compact(key >> 1)), uint32(compact(key >> 2))
}

// Grid quantizes points in a bounding box to integer cells of spacing H.
type Grid struct {
	Origin  [3]float64
	H       float64
	maxCell uint32
}

// NewGrid builds a hash grid with the given origin and spacing. Cells are
// clamped to the 21-bit range in each dimension.
func NewGrid(origin [3]float64, h float64) *Grid {
	return &Grid{Origin: origin, H: h, maxCell: (1 << MaxLevel) - 1}
}

// Cell returns the integer cell coordinates of point p (clamped).
func (g *Grid) Cell(p [3]float64) (ix, iy, iz uint32) {
	f := func(v, o float64) uint32 {
		c := math.Floor((v - o) / g.H)
		if c < 0 {
			return 0
		}
		if c > float64(g.maxCell) {
			return g.maxCell
		}
		return uint32(c)
	}
	return f(p[0], g.Origin[0]), f(p[1], g.Origin[1]), f(p[2], g.Origin[2])
}

// Key returns the Morton key of the cell containing p.
func (g *Grid) Key(p [3]float64) uint64 {
	ix, iy, iz := g.Cell(p)
	return Encode(ix, iy, iz)
}

// KeysInBox returns the Morton keys of all grid cells overlapping the
// axis-aligned box [lo, hi] (used to register a bounding box in the spatial
// hash; paper §3.3 step b samples the inflated box with spacing < H —
// enumerating overlapped cells is the exact version of that sampling).
func (g *Grid) KeysInBox(lo, hi [3]float64) []uint64 {
	ix0, iy0, iz0 := g.Cell(lo)
	ix1, iy1, iz1 := g.Cell(hi)
	n := int(ix1-ix0+1) * int(iy1-iy0+1) * int(iz1-iz0+1)
	keys := make([]uint64, 0, n)
	for ix := ix0; ix <= ix1; ix++ {
		for iy := iy0; iy <= iy1; iy++ {
			for iz := iz0; iz <= iz1; iz++ {
				keys = append(keys, Encode(ix, iy, iz))
			}
		}
	}
	return keys
}
