package bie

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rbcflow/internal/forest"
	"rbcflow/internal/par"
)

// CorrBlock is a node block (see plan.go) with its source patch: the unit
// the tests build plans from and compare them in. The version-1 plan cache
// gob-encoded these, under this name.
type CorrBlock struct {
	Pid int
	M   []float64
}

// planFromRows packs per-node block lists into a full plan, the way the
// build and LoadPlan lay them out.
func planFromRows(quad int, fingerprint string, rows [][]CorrBlock) *QuadPlan {
	nq := quad * quad
	p := &QuadPlan{Version: PlanVersion, Fingerprint: fingerprint, QuadNodes: quad, NumNodes: len(rows)}
	pids := make([][]int, len(rows))
	for g, row := range rows {
		for _, cb := range row {
			pids[g] = append(pids[g], cb.Pid)
		}
	}
	p.groups.layout(len(rows), 0, len(rows), nq, pids)
	for g, row := range rows {
		for i, k := range p.groups.nodeBlocks(g) {
			p.groups.put(k, g%corrLanes, nq, row[i].M)
		}
	}
	return p
}

// blocks returns a copy of the correction blocks of global node g, in
// ascending patch order: the plan file's unit, de-interleaved from the
// in-memory groups.
func (p *QuadPlan) blocks(g int) []CorrBlock {
	nq := p.QuadNodes * p.QuadNodes
	ks := p.groups.nodeBlocks(g)
	out := make([]CorrBlock, len(ks))
	for i, k := range ks {
		out[i] = CorrBlock{Pid: p.groups.pid[k], M: make([]float64, symPlanes*nq)}
		p.groups.get(k, g%corrLanes, nq, out[i].M)
	}
	return out
}

// get reads lane l of group block k back into a CorrBlock's planes.
func (cg *corrGroups) get(k, l, nq int, planes []float64) {
	blk := cg.block(k, nq)
	for p := 0; p < symPlanes; p++ {
		for s := range planes[p*nq : (p+1)*nq] {
			planes[p*nq+s] = blk[s*corrStride+corrLanes*p+l]
		}
	}
}

// applyBlock is the near pass's per-block loop before the groups: one
// target's block contracted with the patch's interleaved density, the three
// components summed over the source nodes in order. It is the reference the
// group layout is held against.
func applyBlock(cb CorrBlock, phi []float64) (a0, a1, a2 float64) {
	nq := len(cb.M) / symPlanes
	xx, xy, xz := cb.M[:nq], cb.M[nq:2*nq], cb.M[2*nq:3*nq]
	yy, yz, zz := cb.M[3*nq:4*nq], cb.M[4*nq:5*nq], cb.M[5*nq:6*nq]
	for m := range xx {
		p := phi[3*m : 3*m+3]
		a0 += float64(xx[m]*p[0]) + float64(xy[m]*p[1]) + float64(xz[m]*p[2])
		a1 += float64(xy[m]*p[0]) + float64(yy[m]*p[1]) + float64(yz[m]*p[2])
		a2 += float64(xz[m]*p[0]) + float64(yz[m]*p[1]) + float64(zz[m]*p[2])
	}
	return a0, a1, a2
}

// rowsByBlocks is the near pass on the per-node blocks: u (3 values per
// target of [lo, hi)) plus every block of every target, in the target's
// order — the rows the group layout must reproduce bit for bit.
func rowsByBlocks(p *QuadPlan, u, phiAll []float64, lo, hi int) []float64 {
	nq := p.QuadNodes * p.QuadNodes
	out := append([]float64(nil), u...)
	for g := lo; g < hi; g++ {
		for _, cb := range p.blocks(g) {
			a0, a1, a2 := applyBlock(cb, phiAll[cb.Pid*3*nq:(cb.Pid+1)*3*nq])
			out[3*(g-lo)] += a0
			out[3*(g-lo)+1] += a1
			out[3*(g-lo)+2] += a2
		}
	}
	return out
}

// corrPassAt is addCorrections on a copy of u at procs cores.
func corrPassAt(procs int, p *QuadPlan, u, phiAll []float64, lo, hi int, block func(m, phi []float64, acc *[12]float64)) []float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	out := append([]float64(nil), u...)
	p.addCorrections(out, phiAll, lo, hi, block)
	return out
}

// nearKernel is one group-block kernel, by name.
type nearKernel struct {
	name  string
	block func(m, phi []float64, acc *[12]float64)
}

// nearKernels are the group-block kernels of this machine.
func nearKernels() []nearKernel {
	ks := []nearKernel{{"portable loop", corrBlockGo}}
	if useAVX2 {
		ks = append(ks, nearKernel{"avx2", corrBlockAVX2})
	}
	return ks
}

// randomSigned is n normal values with signed zeros among them.
func randomSigned(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	signedZeros(rng, v)
	return v
}

// checkNearPass: on plan p of s, every group block is summed to the same
// bits by the AVX2 kernel and the portable loop, and the near pass over all
// nodes — both kernels, one core and four — is the per-node block loop's
// rows to the bit, for a random density and random prior rows with signed
// zeros among them.
func checkNearPass(t *testing.T, s *Surface, p *QuadPlan, seed int64) {
	t.Helper()
	n := s.NumNodes()
	phi := randomSigned(3*n, seed)
	u := randomSigned(3*n, seed+1)
	nq := s.NQ
	cg := &p.groups
	if useAVX2 {
		var want, got [12]float64
		for k, pid := range cg.pid {
			m, f := cg.block(k, nq), phi[pid*3*nq:(pid+1)*3*nq]
			corrBlockGo(m, f, &want)
			corrBlockAVX2(m, f, &got)
			if k == 0 || k == len(cg.pid)-1 || want != got {
				sameBits(t, fmt.Sprintf("group block %d (patch %d)", k, pid), got[:], want[:])
			}
		}
	}
	want := rowsByBlocks(p, u, phi, 0, n)
	for _, k := range nearKernels() {
		for _, procs := range []int{1, 4} {
			sameBits(t, fmt.Sprintf("%s, GOMAXPROCS=%d", k.name, procs), corrPassAt(procs, p, u, phi, 0, n, k.block), want)
		}
	}
}

// TestCorrKernelBitIdentical: the AVX2 group kernel is the portable loop to
// the bit on random blocks and densities with signed zeros, at NQ = 1 … 9,
// 25, 36 and 49 source nodes, and every lane of the portable loop is the
// per-target block loop it replaced.
func TestCorrKernelBitIdentical(t *testing.T) {
	for _, nq := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 25, 36, 49} {
		m := randomSigned(nq*corrStride, int64(nq))
		phi := randomSigned(3*nq, int64(100+nq))
		var want, got [12]float64
		corrBlockGo(m, phi, &want)
		cb := CorrBlock{M: make([]float64, symPlanes*nq)}
		cg := corrGroups{m: m}
		for l := 0; l < corrLanes; l++ {
			cg.get(0, l, nq, cb.M)
			a0, a1, a2 := applyBlock(cb, phi)
			sameBits(t, fmt.Sprintf("NQ=%d lane %d", nq, l), []float64{want[l], want[4+l], want[8+l]}, []float64{a0, a1, a2})
		}
		if useAVX2 {
			corrBlockAVX2(m, phi, &got)
			sameBits(t, fmt.Sprintf("NQ=%d", nq), got[:], want[:])
		}
	}
}

// TestNearPassMatchesBlocks: on the light torus and the capsule, the full
// plan's near pass is the per-node block loop to the bit, on both kernels.
func TestNearPassMatchesBlocks(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func() *Surface
	}{{"torus", torusSurface}, {"capsule", capsuleSurface}} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.make()
			checkNearPass(t, s, BuildQuadPlan(s, 2), 47)
		})
	}
}

// threePatchSurface is three faces of the coarse cubed sphere: fewer patches
// than ranks from 4 ranks on, 25 nodes each, so rank ranges start and end
// inside groups of four.
func threePatchSurface() *Surface {
	return NewSurface(forest.NewUniform(cubeSphere(8, 1, 0).Patches[:3], 0), lightParams())
}

// TestNearPassAcrossRanks: a rank's partial plan holds the groups of its own
// nodes, and a group that straddles its range is summed whole and masked.
// The gathered rows of 1 … 5 ranks' partial plans — empty ranks included —
// are the full plan's rows to the bit, on both kernels and on one core and
// four.
func TestNearPassAcrossRanks(t *testing.T) {
	s := threePatchSurface()
	n := s.NumNodes()
	phi := randomSigned(3*n, 48)
	u := randomSigned(3*n, 49)
	full := BuildQuadPlan(s, 1)
	want := rowsByBlocks(full, u, phi, 0, n)
	for ranks := 1; ranks <= 5; ranks++ {
		for _, k := range nearKernels() {
			for _, procs := range []int{1, 4} {
				var got []float64
				for r := 0; r < ranks; r++ {
					p0, p1 := s.F.OwnerRange(ranks, r)
					lo, hi := p0*s.NQ, p1*s.NQ
					part := buildPartialPlan(s, lo, hi, 2)
					got = append(got, corrPassAt(procs, part, u[3*lo:3*hi], phi, lo, hi, k.block)...)
					// The full plan, used by a rank, gives the same rows.
					sameBits(t, fmt.Sprintf("%d ranks, rank %d, full plan, %s", ranks, r, k.name),
						corrPassAt(procs, full, u[3*lo:3*hi], phi, lo, hi, k.block), want[3*lo:3*hi])
				}
				sameBits(t, fmt.Sprintf("%d ranks, %s, GOMAXPROCS=%d", ranks, k.name, procs), got, want)
			}
		}
	}
}

// TestCoarseRowsOnBothKernels: the Galerkin rows of the coarse level read
// the group layout through the near-pass kernel; the AVX2 kernel and the
// portable loop give the same bits.
func TestCoarseRowsOnBothKernels(t *testing.T) {
	if !useAVX2 {
		t.Skip("this CPU has no AVX2: the portable loop is the only kernel")
	}
	s := capsuleSurface()
	plan := BuildQuadPlan(s, 2)
	var kernel, portable []float64
	par.Run(1, par.SKX(), func(c *par.Comm) {
		sv := NewWallOperator(c, s, WithPlan(plan))
		kernel = sv.coarse.galerkinRows(sv, patchBasis(s))
		defer func() { useAVX2 = true }()
		useAVX2 = false
		portable = sv.coarse.galerkinRows(sv, patchBasis(s))
	})
	sameBits(t, "Galerkin rows", kernel, portable)
}

// rectTargets are targets for rectangle rg: random points around it at
// distances from a hundredth to twice its diameter, then one exactly on each
// of its nodes 0, 17 and n−1 (node[i] ≥ 0 names the node target i is on).
func rectTargets(rng *rand.Rand, rg *rectGeom, n int) (x [][3]float64, node []int) {
	for i := 0; i < 8; i++ {
		k := rng.Intn(n)
		d := rg.diam * math.Pow(200, rng.Float64()) / 100
		x = append(x, [3]float64{
			rg.q[k] + d*rng.NormFloat64(), rg.q[n+k] + d*rng.NormFloat64(), rg.q[2*n+k] + d*rng.NormFloat64()})
		node = append(node, -1)
	}
	for _, k := range []int{0, 17, n - 1} {
		x = append(x, [3]float64{rg.q[k], rg.q[n+k], rg.q[2*n+k]})
		node = append(node, k)
	}
	return x, node
}

// checkIntegrateVel: on rectangles of every patch of s — cached ones at
// depth 0, 3 and 6 and the deep scratch rectangle — the AVX2 quadrature
// kernel, finished by the portable loop, is the portable loop to the bit,
// for random densities with signed zeros and random starting sums, at
// targets around the rectangle and exactly on its nodes. A target on node k
// ends the kernel before k's group of four, and the portable loop skips k
// (added, it would be 0·∞ = NaN).
func checkIntegrateVel(t *testing.T, s *Surface, seed int64) {
	t.Helper()
	if !useAVX2 {
		t.Skip("this CPU has no AVX2: the portable loop is the only kernel")
	}
	rng := rand.New(rand.NewSource(seed))
	ac := newAdaptiveCtx(s.P.QuadNodes)
	n := ac.qi * ac.qi
	for pid, pp := range s.F.Patches {
		for _, d := range []uint64{0, 3, adaptCacheDepth, adaptCacheDepth + 4} {
			iu, iv := rng.Uint64()%(1<<d), rng.Uint64()%(1<<d)
			rg := ac.getRect(pp, d, iu, d, iv)
			if rg.q == nil {
				ac.allocQuad(rg)
			}
			ac.fillQuad(rg, pp, d, iu, d, iv)
			ph := randomSigned(3*n, rng.Int63())
			targets, node := rectTargets(rng, rg, n)
			for ti, x := range targets {
				a0 := [3]float64(randomSigned(3, rng.Int63()))
				want, got := a0, a0
				integrateVelGo(&want, rg.q, ph, x, 0)
				done := integrateVelAVX2(rg.q, ph, n, &x, &got)
				if stop := node[ti] &^ 3; done%4 != 0 || done > n || node[ti] >= 0 && done != stop {
					t.Fatalf("patch %d depth %d target %d (on node %d): the kernel reports %d of %d nodes", pid, d, ti, node[ti], done, n)
				}
				integrateVelGo(&got, rg.q, ph, x, done)
				if got != want {
					sameBits(t, fmt.Sprintf("patch %d depth %d target %d", pid, d, ti), got[:], want[:])
				}
			}
		}
	}
}

// TestIntegrateVelKernelBitIdentical: the quadrature kernel on the light
// torus and the capsule; the registered walls are checked from the external
// test package.
func TestIntegrateVelKernelBitIdentical(t *testing.T) {
	checkIntegrateVel(t, torusSurface(), 50)
	checkIntegrateVel(t, capsuleSurface(), 51)
}

var sinkVel [3]float64

// BenchmarkIntegrateVel times one rectangle of the near-singular quadrature
// (36 nodes) per kernel, in ns per rectangle, over 200 rectangles of the
// light torus at targets a tenth to twice their diameter away.
func BenchmarkIntegrateVel(b *testing.B) {
	s := torusSurface()
	rng := rand.New(rand.NewSource(57))
	ac := newAdaptiveCtx(s.P.QuadNodes)
	n := ac.qi * ac.qi
	type rect struct {
		q, ph []float64
		x     [3]float64
	}
	var rects []rect
	for len(rects) < 200 {
		pp := s.F.Patches[rng.Intn(len(s.F.Patches))]
		d := uint64(rng.Intn(4))
		iu, iv := rng.Uint64()%(1<<d), rng.Uint64()%(1<<d)
		rg := &rectGeom{}
		ac.fillSamples(rg, pp, d, iu, d, iv)
		ac.allocQuad(rg)
		ac.fillQuad(rg, pp, d, iu, d, iv)
		k := rng.Intn(n)
		dist := rg.diam * (0.1 + 1.9*rng.Float64())
		x := [3]float64{rg.q[k] + dist*rng.NormFloat64(), rg.q[n+k] + dist*rng.NormFloat64(), rg.q[2*n+k] + dist*rng.NormFloat64()}
		rects = append(rects, rect{rg.q, randomSigned(3*n, rng.Int63()), x})
	}
	kernels := map[string]func(r *rect){
		"go": func(r *rect) { integrateVelGo(&sinkVel, r.q, r.ph, r.x, 0) },
	}
	if useAVX2 {
		kernels["avx2"] = func(r *rect) {
			done := integrateVelAVX2(r.q, r.ph, n, &r.x, &sinkVel)
			integrateVelGo(&sinkVel, r.q, r.ph, r.x, done)
		}
	}
	for name, run := range kernels {
		b.Run("kernel="+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range rects {
					run(&rects[j])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rects)), "ns/rect")
		})
	}
}
