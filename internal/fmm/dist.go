package fmm

import (
	"math"

	"rbcflow/internal/par"
	"rbcflow/internal/telemetry"
)

// EvaluateDist computes the global N-body sum with sources and targets
// distributed over the ranks of c. Each rank passes its local sources and
// targets and receives the values at its local targets.
//
// The algorithm mirrors the paper's use of PVFMM: source data is exchanged
// (allgather), every rank performs the upward pass for a block of leaves
// (multipoles are additive, so partial upward passes sum correctly), the
// partial multipoles are combined with an all-reduce, and each rank runs the
// downward pass restricted to the boxes its own targets need. The tree
// structure itself is rebuilt redundantly per rank — an O(N) term analogous
// to PVFMM's non-scaling setup cost, visible in the strong-scaling results
// exactly as the paper's FMM components are.
func EvaluateDist(c *par.Comm, e *Evaluator, srcPos [][3]float64, srcQ []float64, trgPos [][3]float64) []float64 {
	ds := e.cfg.Kernel.SrcDim()

	allPos, _ := par.AllgathervFlat(c, srcPos)
	allQ, _ := par.AllgathervFlat(c, srcQ)

	// Global bounding box over sources and all targets.
	ext := make([]float64, 6)
	lo, hi := bbox(allPos, trgPos)
	for d := 0; d < 3; d++ {
		if len(allPos) == 0 && len(trgPos) == 0 {
			lo[d], hi[d] = 0, 1
		}
		ext[d] = -lo[d]
		ext[3+d] = hi[d]
	}
	c.AllreduceMax(ext)
	for d := 0; d < 3; d++ {
		lo[d] = -ext[d]
		hi[d] = ext[3+d]
	}

	counts := []int{len(trgPos)}
	c.AllreduceSumInt(counts)
	globalTrg := counts[0]

	if len(allPos)*globalTrg <= e.cfg.DirectBelow || len(allPos) == 0 {
		return e.Direct(allPos, allQ, trgPos)
	}

	stopBuild := telemetry.Start(e.cfg.Tel, "fmm.tree.build")
	t := buildTree(e.cfg, lo, hi, allPos, allQ, e.ci)
	stopBuild()

	// Partial upward pass over this rank's block of occupied leaves.
	stopUp := telemetry.Start(e.cfg.Tel, "fmm.upward")
	leafLo, leafHi := par.BlockRange(len(t.keys[t.depth]), c.Size(), c.Rank())
	e.upward(t, leafLo, leafHi)
	stopUp()

	// All-reduce multipoles in the tree's box order.
	flat := flattenMultipoles(t, ds, e.ci.nn)
	c.AllreduceSum(flat)
	unflattenMultipoles(t, ds, e.ci.nn, flat)

	// Downward pass restricted to ancestors of local target leaves.
	stopDown := telemetry.Start(e.cfg.Tel, "fmm.downward")
	needed := make([]map[uint64]bool, t.depth+1)
	for l := range needed {
		needed[l] = map[uint64]bool{}
	}
	for _, x := range trgPos {
		ix, iy, iz := t.leafOf(x)
		for l := t.depth; l >= 0; l-- {
			shift := uint(t.depth - l)
			key := boxKey(ix>>shift, iy>>shift, iz>>shift)
			if needed[l][key] {
				break
			}
			needed[l][key] = true
		}
	}
	out := e.downward(t, trgPos, needed)
	stopDown()
	e.cfg.Health.CheckFinite("fmm.out", out)
	return out
}

// flattenMultipoles packs every box's multipole into one vector in
// (level, sorted key) order; boxes without a computed multipole contribute
// zeros.
func flattenMultipoles(t *tree, ds, nn int) []float64 {
	total := 0
	for _, keys := range t.keys {
		total += len(keys)
	}
	flat := make([]float64, total*nn*ds)
	pos := 0
	for l, keys := range t.keys {
		for _, k := range keys {
			if b := t.levels[l][k]; b.multipole != nil {
				copy(flat[pos:pos+nn*ds], b.multipole)
			}
			pos += nn * ds
		}
	}
	return flat
}

func unflattenMultipoles(t *tree, ds, nn int, flat []float64) {
	pos := 0
	for l, keys := range t.keys {
		for _, k := range keys {
			b := t.levels[l][k]
			if b.multipole == nil {
				b.multipole = make([]float64, nn*ds)
			}
			copy(b.multipole, flat[pos:pos+nn*ds])
			pos += nn * ds
		}
	}
}

// RelativeError returns the max relative ∞-norm error of got vs want
// (vector fields flattened per target), a helper shared by tests and the
// convergence harness.
func RelativeError(got, want []float64) float64 {
	var maxErr, maxRef float64
	for i := range got {
		if a := math.Abs(want[i]); a > maxRef {
			maxRef = a
		}
		if d := math.Abs(got[i] - want[i]); d > maxErr {
			maxErr = d
		}
	}
	if maxRef == 0 {
		return maxErr
	}
	return maxErr / maxRef
}
