package bie

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"rbcflow/internal/par"
	"rbcflow/internal/telemetry"
)

// PlanVersion is bumped whenever the on-disk plan layout or the numerics
// that produce the blocks change; LoadPlan rejects mismatches instead of
// mis-decoding, and the version participates in the fingerprint so a stale
// cache entry can never be confused with a current one.
const PlanVersion = 2

// A node block is one precomputed local correction: the contribution of one
// near patch's coarse density to one target node, combining −(coarse direct)
// with +(adaptive fine quadrature). The Stokes double layer
// D_ab = −3/(4π)(r·n) r_a r_b/|r|⁵ is symmetric in (a, b) at every source
// point, and interpolating a quadrature point onto a coarse node multiplies
// it by a scalar weight, so the 3×3 sub-block of every source node is
// symmetric and only its upper triangle is stored: symPlanes planes of NQ
// values each, in the order xx, xy, xz, yy, yz, zz, plane p's entry for
// source node m at [p·NQ+m]. It is the unit of the plan file and of the
// build; in memory the plan holds its node blocks interleaved (corrGroups).

// symPlanes is the number of independent entries of a symmetric 3×3 block.
const symPlanes = 6

// corrLanes target nodes make one group of the near pass, one per lane of an
// AVX2 register; a source node of a group block takes corrStride values.
const (
	corrLanes  = 4
	corrStride = symPlanes * corrLanes
)

// corrGroups is the plan's near-field operator in memory. Group b holds the
// target nodes 4b … 4b+3 and one block per patch near any of them, in the
// order of its nodes' own block lists merged (ascending patch id for every
// plan built or loaded): blocks start[b] … start[b+1]−1. Block k holds, per
// source node s of patch pid[k], the six planes of every lane:
// m[(k·NQ+s)·corrStride + 4p + l] is plane p of node 4b+l's node block. Bit
// l of lanes[k] is set when node 4b+l has the patch; the other lanes are
// zero and never read back. Groups of nodes a plan does not cover (a
// partial plan's other ranks) have no blocks.
type corrGroups struct {
	start []int
	pid   []int
	lanes []uint8
	m     []float64
}

// layout fills start, pid and lanes for rows[g−lo], the block patch lists
// of the nodes [lo, hi) of an n-node surface, and allocates the zero planes
// of nq source nodes per block. Each lane's list is merged in its own order,
// so a node's blocks come back from its group in the order of its row.
func (cg *corrGroups) layout(n, lo, hi, nq int, rows [][]int) {
	groups := (n + corrLanes - 1) / corrLanes
	cg.start = make([]int, groups+1)
	cg.pid, cg.lanes = cg.pid[:0], cg.lanes[:0]
	for b := 0; b < groups; b++ {
		cg.start[b] = len(cg.pid)
		var heads [corrLanes][]int
		for l := range heads {
			if g := corrLanes*b + l; g >= lo && g < hi {
				heads[l] = rows[g-lo]
			}
		}
		for {
			next, found := 0, false
			for _, h := range heads {
				if len(h) > 0 && (!found || h[0] < next) {
					next, found = h[0], true
				}
			}
			if !found {
				break
			}
			var mask uint8
			for l, h := range heads {
				if len(h) > 0 && h[0] == next {
					mask |= 1 << l
					heads[l] = h[1:]
				}
			}
			cg.pid = append(cg.pid, next)
			cg.lanes = append(cg.lanes, mask)
		}
	}
	cg.start[groups] = len(cg.pid)
	cg.m = make([]float64, len(cg.pid)*nq*corrStride)
}

// block returns the planes of group block k (nq source nodes).
func (cg *corrGroups) block(k, nq int) []float64 {
	n := nq * corrStride
	return cg.m[k*n : (k+1)*n : (k+1)*n]
}

// nodeBlocks returns the group blocks of node g, in the order of its row.
func (cg *corrGroups) nodeBlocks(g int) []int {
	b, bit := g/corrLanes, uint8(1)<<(g%corrLanes)
	var ks []int
	for k := cg.start[b]; k < cg.start[b+1]; k++ {
		if cg.lanes[k]&bit != 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

// put writes a node block's planes (symPlanes·nq values) into lane l of group
// block k.
func (cg *corrGroups) put(k, l, nq int, planes []float64) {
	blk := cg.block(k, nq)
	for p := 0; p < symPlanes; p++ {
		for s, v := range planes[p*nq : (p+1)*nq] {
			blk[s*corrStride+corrLanes*p+l] = v
		}
	}
}

// corrBlock contracts group block m with the interleaved coarse density phi
// of its patch (3 values per source node): acc[4c+l] is component c of lane
// l's correction. corrBlockAVX2 where the CPU has it, corrBlockGo elsewhere.
func corrBlock(m, phi []float64, acc *[12]float64) {
	if useAVX2 {
		corrBlockAVX2(m, phi, acc)
		return
	}
	corrBlockGo(m, phi, acc)
}

// corrBlockGo is the portable loop and the AVX2 kernel's reference: two
// lanes per pass over the source nodes, each summing them in node order. The
// conversions round every product on its own, as VMULPD does: without them
// the spec lets a compiler fuse x*y + z into an FMA, and Go does on arm64.
func corrBlockGo(m, phi []float64, acc *[12]float64) {
	n := len(m) / corrStride
	phi = phi[:3*n]
	for l := 0; l < corrLanes; l += 2 {
		var a0, a1, a2, b0, b1, b2 float64
		for s := 0; s < n; s++ {
			p := phi[3*s : 3*s+3 : 3*s+3]
			e := m[s*corrStride : (s+1)*corrStride : (s+1)*corrStride]
			xx, xy, xz, yy, yz, zz := e[l], e[4+l], e[8+l], e[12+l], e[16+l], e[20+l]
			a0 += float64(xx*p[0]) + float64(xy*p[1]) + float64(xz*p[2])
			a1 += float64(xy*p[0]) + float64(yy*p[1]) + float64(yz*p[2])
			a2 += float64(xz*p[0]) + float64(yz*p[1]) + float64(zz*p[2])
			xx, xy, xz, yy, yz, zz = e[l+1], e[5+l], e[9+l], e[13+l], e[17+l], e[21+l]
			b0 += float64(xx*p[0]) + float64(xy*p[1]) + float64(xz*p[2])
			b1 += float64(xy*p[0]) + float64(yy*p[1]) + float64(yz*p[2])
			b2 += float64(xz*p[0]) + float64(yz*p[1]) + float64(zz*p[2])
		}
		acc[l], acc[4+l], acc[8+l] = a0, a1, a2
		acc[l+1], acc[5+l], acc[9+l] = b0, b1, b2
	}
}

// QuadPlan is the precomputed near-field correction operator of the local
// mode for one rigid surface: per coarse node, the dense correction blocks
// of every near patch. A plan is immutable once built, safe for concurrent
// readers, shareable between solvers, ranks, sweep points and processes
// (via SavePlan/LoadPlan), and content-addressed by Fingerprint.
type QuadPlan struct {
	Version int
	// Fingerprint identifies the (geometry, discretization, quadrature
	// numerics) content this plan was built for; see PlanFingerprint.
	// Empty on partial (rank-local) plans, which are never cached.
	Fingerprint string
	QuadNodes   int
	NumNodes    int
	// Partial marks a rank-local plan: nodes outside the owning rank's
	// range have no blocks. Partial plans cannot be saved or shared.
	Partial bool
	// groups holds every node's correction blocks, ordered by ascending
	// patch id (the deterministic nearPatches order), four nodes at a time.
	groups corrGroups
}

// addCorrections adds the near corrections of the targets [lo, hi) to u (3
// values per target, u[0:3] for node lo), phiAll being the whole surface's
// density. Each target adds its blocks in its own order; a group that
// straddles lo or hi is computed whole and its outside lanes dropped, so a
// row is the same bits at any rank count and GOMAXPROCS. block sums one
// group block: corrBlock, or in tests one kernel.
func (p *QuadPlan) addCorrections(u, phiAll []float64, lo, hi int, block func(m, phi []float64, acc *[12]float64)) {
	nq := p.QuadNodes * p.QuadNodes
	cg := &p.groups
	b0, b1 := lo/corrLanes, (hi+corrLanes-1)/corrLanes
	par.For(b1-b0, applyGrain/corrLanes, func(c0, c1 int) {
		var acc [12]float64
		for b := b0 + c0; b < b0+c1; b++ {
			for k := cg.start[b]; k < cg.start[b+1]; k++ {
				pid := cg.pid[k]
				block(cg.block(k, nq), phiAll[pid*3*nq:(pid+1)*3*nq], &acc)
				for l := 0; l < corrLanes; l++ {
					t := corrLanes*b + l
					if cg.lanes[k]&(1<<l) == 0 || t < lo || t >= hi {
						continue
					}
					dst := u[3*(t-lo) : 3*(t-lo)+3 : 3*(t-lo)+3]
					dst[0] += acc[l]
					dst[1] += acc[4+l]
					dst[2] += acc[8+l]
				}
			}
		}
	})
}

// Compatible reports whether the plan can drive the local operator on s,
// checking the cheap structural invariants first and the full content
// fingerprint last (skipped for partial plans, which are built in-process
// from s itself).
func (p *QuadPlan) Compatible(s *Surface) error {
	if p.Version != PlanVersion {
		return fmt.Errorf("bie: plan version %d, want %d", p.Version, PlanVersion)
	}
	if p.NumNodes != s.NumNodes() {
		return fmt.Errorf("bie: plan has %d nodes, surface has %d", p.NumNodes, s.NumNodes())
	}
	if p.QuadNodes != s.P.QuadNodes {
		return fmt.Errorf("bie: plan built for %d quad nodes, surface uses %d", p.QuadNodes, s.P.QuadNodes)
	}
	if !p.Partial {
		if fp := PlanFingerprint(s); p.Fingerprint != fp {
			return fmt.Errorf("bie: plan fingerprint %.12s does not match surface %.12s", p.Fingerprint, fp)
		}
	}
	return nil
}

// PlanFingerprint content-addresses the near-field correction operator of a
// surface: a SHA-256 over everything the blocks depend on — the plan format
// version, the adaptive-rule constants, the discretization parameters that
// shape the blocks (QuadNodes sets the block size and interpolation grid,
// NearFactor the near-zone membership), and the exact nodal geometry of
// every patch. Two surfaces with equal fingerprints produce bit-identical
// plans, so the fingerprint is a safe disk-cache key across sweep points,
// campaign runs, and checkpoint resumes. The hash is computed once per
// (rigid, immutable) surface and memoized: Compatible re-checks it on every
// operator construction — per rank, per checkpoint segment — and must not
// re-hash the geometry each time.
func PlanFingerprint(s *Surface) string {
	s.fpOnce.Do(func() { s.fp = computeFingerprint(s) })
	return s.fp
}

func computeFingerprint(s *Surface) string {
	h := sha256.New()
	var buf [8]byte
	wi := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wf := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	wi(PlanVersion)
	wi(adaptOrder)
	wi(adaptMaxDepth)
	wi(adaptCacheDepth)
	wf(adaptAlpha)
	wf(adaptAlphaGrow)
	wf(adaptAlphaMax)
	wf(adaptAspect)
	wi(s.P.QuadNodes)
	wf(s.P.NearFactor)
	wi(s.F.NumPatches())
	for _, pp := range s.F.Patches {
		wi(pp.Q)
		wi(len(pp.Val))
		for _, v := range pp.Val {
			wf(v[0])
			wf(v[1])
			wf(v[2])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BuildQuadPlan precomputes the full-surface correction plan with a worker
// pool over target nodes. workers <= 0 uses GOMAXPROCS. The result is
// bit-identical for every worker count: each node's blocks are an
// independent deterministic function of the surface, workers only partition
// the node set, and each worker owns a private adaptiveCtx whose
// rect-geometry cache affects cost, never values.
func BuildQuadPlan(s *Surface, workers int) *QuadPlan {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &QuadPlan{
		Version:     PlanVersion,
		Fingerprint: PlanFingerprint(s),
		QuadNodes:   s.P.QuadNodes,
		NumNodes:    s.NumNodes(),
	}
	buildCorrRange(&p.groups, s, 0, p.NumNodes, workers)
	return p
}

// buildPartialPlan precomputes only the node range [lo, hi) — the rank-local
// construction path of NewWallOperator when no shared plan is supplied.
func buildPartialPlan(s *Surface, lo, hi, workers int) *QuadPlan {
	p := &QuadPlan{
		Version:   PlanVersion,
		QuadNodes: s.P.QuadNodes,
		NumNodes:  s.NumNodes(),
		Partial:   true,
	}
	buildCorrRange(&p.groups, s, lo, hi, workers)
	return p
}

// buildCorrRange builds the blocks of nodes [lo, hi) into cg with `workers`
// goroutines, in two passes: every node's near patches, which fix the
// layout and the one allocation of the planes, then the blocks, each node's
// computed into the worker's scratch and written into its lane (workers
// write disjoint lanes, never the same value). Work is dealt in patch-sized
// chunks (one patch's NQ consecutive targets) so a worker's adaptiveCtx
// cache sees runs of targets refining into the same patches; the chunk an
// individual worker processes never influences the values written, only
// which private cache fills them in.
//
// The second pass deals the chunks in chunkOrder, each position once and in
// increasing order, so once a worker has finished position k it only ever
// takes positions after k: the rectangles it cached for a patch whose last
// reading chunk sits at k or before are never read again, and it drops them.
// A worker's cache then holds the patches read around its current position
// rather than every patch it has met.
func buildCorrRange(cg *corrGroups, s *Surface, lo, hi, workers int) {
	// Fill the shared bbox cache before the pool starts: nearPatches would
	// do it lazily through a sync.Once, but doing it here keeps the workers'
	// first chunks uniform.
	s.bboxOnce.Do(s.fillBBoxes)
	hi = max(hi, lo)
	nq := s.NQ
	rows := make([][]int, hi-lo)
	forChunks(hi-lo, nq, workers, func() func(int, int) {
		return func(i0, i1 int) {
			for g := lo + i0; g < lo+i1; g++ {
				rows[g-lo] = s.nearPatches(s.Pts[g], s.PatchOf(g))
			}
		}
	})
	cg.layout(s.NumNodes(), lo, hi, nq, rows)
	// lo is a patch's first node, so chunk c holds the targets of patch
	// lo/nq + c. lastRead[k] lists the patches whose last reading chunk is
	// dealt at position k.
	order := chunkOrder(rows, nq, lo/nq)
	last := make([]int, s.F.NumPatches())
	for j := range last {
		last[j] = -1
	}
	for k, c := range order {
		for _, near := range rows[c*nq : min((c+1)*nq, len(rows))] {
			for _, j := range near {
				last[j] = k
			}
		}
	}
	lastRead := make([][]int, len(order))
	for j, k := range last {
		if k >= 0 {
			lastRead[k] = append(lastRead[k], j)
		}
	}
	forChunks(len(order), 1, workers, func() func(int, int) {
		ac := newAdaptiveCtx(s.P.QuadNodes)
		var scratch []float64
		dropped := 0 // lastRead[:dropped] are out of ac's cache
		return func(k, _ int) {
			c := order[k]
			for g := lo + c*nq; g < min(lo+(c+1)*nq, hi); g++ {
				near := rows[g-lo]
				if n := len(near) * symPlanes * nq; cap(scratch) < n {
					scratch = make([]float64, n)
				} else {
					scratch = scratch[:n]
					clear(scratch)
				}
				buildNodeCorr(ac, s, g, near, scratch)
				for i, kb := range cg.nodeBlocks(g) {
					cg.put(kb, g%corrLanes, nq, scratch[i*symPlanes*nq:(i+1)*symPlanes*nq])
				}
			}
			for ; dropped <= k; dropped++ {
				for _, j := range lastRead[dropped] {
					ac.dropRects(s.F.Patches[j])
				}
			}
		}
	})
}

// chunkOrder returns the order in which buildCorrRange deals the chunks of
// rows (chunk c is the nq targets of patch p0 + c): the Cuthill–McKee order
// of the graph that joins two chunks when the targets of one read the
// other's patch — breadth first from a chunk of fewest neighbours, each
// chunk's unvisited neighbours taken by increasing degree. A patch is read
// by the chunks of the patches around it, and those sit close together in
// this order, so few patches have rectangles cached at once. Patch order
// gives no such bound: the junction patches of a network sit far from the
// branches they join (on network-y, 108 of 150 patches are between their
// first and last reading chunk at some point in patch order, at most 60 in
// this one).
func chunkOrder(rows [][]int, nq, p0 int) []int {
	nc := (len(rows) + nq - 1) / nq
	adj := make([][]int, nc)
	for c := range nc {
		for _, near := range rows[c*nq : min((c+1)*nq, len(rows))] {
			for _, j := range near {
				if d := j - p0; d >= 0 && d < nc && d != c {
					adj[c] = append(adj[c], d)
					adj[d] = append(adj[d], c)
				}
			}
		}
	}
	for c := range adj {
		slices.Sort(adj[c])
		adj[c] = slices.Compact(adj[c])
	}
	byDegree := func(a, b int) int {
		if da, db := len(adj[a]), len(adj[b]); da != db {
			return da - db
		}
		return a - b
	}
	order := make([]int, 0, nc)
	seen := make([]bool, nc)
	for len(order) < nc {
		start := -1
		for c := range nc {
			if !seen[c] && (start < 0 || len(adj[c]) < len(adj[start])) {
				start = c
			}
		}
		seen[start] = true
		order = append(order, start)
		for k := len(order) - 1; k < len(order); k++ {
			n0 := len(order)
			for _, d := range adj[order[k]] {
				if !seen[d] {
					seen[d] = true
					order = append(order, d)
				}
			}
			slices.SortFunc(order[n0:], byDegree)
		}
	}
	return order
}

// forChunks runs the body newWorker returns over [0, n) in chunks of
// `chunk`, dealt in increasing order to at most `workers` goroutines (the
// calling one when workers <= 1), each calling newWorker once for its
// private state.
func forChunks(n, chunk, workers int, newWorker func() func(i0, i1 int)) {
	if n <= 0 {
		return
	}
	var next atomic.Int64
	work := func() {
		body := newWorker()
		for {
			i0 := int(next.Add(int64(chunk))) - chunk
			if i0 >= n {
				return
			}
			body(i0, min(i0+chunk, n))
		}
	}
	workers = min(max(workers, 1), (n+chunk-1)/chunk)
	if workers == 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// buildNodeCorr assembles, for one target node, the combined correction
// block −W(x)·ϕ_j + A_j(x)·ϕ_j of every near patch j into m (zero on entry;
// one node block's symPlanes·NQ values per patch, in the order of near),
// where A_j is the adaptive singular/near-singular quadrature of adaptive.go
// (the own patch's weakly singular PV integral, a proper integral for every
// other near patch). Both parts are symmetric per source node and land in
// the same six planes. The ½ϕ interior jump is added analytically in Apply.
func buildNodeCorr(ac *adaptiveCtx, s *Surface, g int, near []int, m []float64) {
	nq := s.NQ
	x := s.Pts[g]
	for i, j := range near {
		mi := m[i*symPlanes*nq : (i+1)*symPlanes*nq : (i+1)*symPlanes*nq]
		// −(coarse direct) part.
		for mm := 0; mm < nq; mm++ {
			idx := j*nq + mm
			addDLBlock(mi, nq, mm, x, s.Pts[idx], s.Nrm[idx], -s.W[idx])
		}
		// +(adaptive quadrature) part.
		ac.dlBlock(mi, s.F.Patches[j], x)
	}
}

// The plan file, little-endian throughout:
//
//	magic "RBCQPLAN" | version u32 | QuadNodes u32 | NumNodes u64 | blocks u64 | len(Fingerprint) u32
//	Fingerprint bytes
//	NumNodes × u32   block count of every node (≥ 1: a node is near its own patch)
//	blocks × u32     patch ids, node by node
//	blocks × 6·QuadNodes² × f64   the blocks' planes, in the same order
//
// Every length is declared before the data it describes, so a reader can
// hold the declarations against the file size before it allocates anything,
// and the floats — all but a few hundred kB of the file — are one contiguous
// run that loads into one slab.
const (
	planMagic     = "RBCQPLAN"
	planHeaderLen = len(planMagic) + 4 + 4 + 8 + 8 + 4
	planMaxQuad   = 1 << 10 // QuadNodes bound: keeps 8·6·QuadNodes² far from overflow
	planIOChunk   = 1 << 20
)

// ErrPlanFormat is wrapped by every LoadPlan error that means "this file is
// not a plan of the current format": truncated or oversized, foreign magic
// (a version-1 gob plan included), another version, or declared counts the
// file cannot back. PlanFor treats it like any unreadable entry: rebuild and
// overwrite.
var ErrPlanFormat = errors.New("not a plan file of the current format")

// SavePlan writes the plan atomically (unique temp file + rename, like
// scenario checkpoints), so an interrupt mid-write never corrupts a cached
// plan and concurrent processes publishing the same fingerprint cannot
// interleave into one temp file. Partial plans are rejected: only
// full-surface plans are shareable.
func SavePlan(path string, p *QuadPlan) error {
	if p.Partial {
		return fmt.Errorf("bie: refusing to save a partial (rank-local) plan")
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := writePlan(f, p); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("bie: write plan: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// writePlan writes the plan file, de-interleaving the groups node by node.
func writePlan(w io.Writer, p *QuadPlan) error {
	cg := &p.groups
	if p.QuadNodes < 1 || p.QuadNodes > planMaxQuad || p.NumNodes < 0 || p.NumNodes%(p.QuadNodes*p.QuadNodes) != 0 ||
		len(cg.start) != (p.NumNodes+corrLanes-1)/corrLanes+1 {
		return fmt.Errorf("plan header out of range (QuadNodes %d, %d groups for %d nodes)", p.QuadNodes, len(cg.start)-1, p.NumNodes)
	}
	// What readPlan will insist on, checked here so that a file it would
	// reject is never written.
	nq := p.QuadNodes * p.QuadNodes
	blockLen, patches := symPlanes*nq, p.NumNodes/nq
	if len(cg.m) != len(cg.pid)*nq*corrStride {
		return fmt.Errorf("%d plane values for %d blocks of %d source nodes", len(cg.m), len(cg.pid), nq)
	}
	rows := make([][]int, p.NumNodes)
	blocks := 0
	for g := range rows {
		rows[g] = cg.nodeBlocks(g)
		if len(rows[g]) == 0 {
			return fmt.Errorf("node %d has no blocks", g)
		}
		for _, k := range rows[g] {
			if cg.pid[k] < 0 || cg.pid[k] >= patches {
				return fmt.Errorf("node %d: block of patch %d (of %d)", g, cg.pid[k], patches)
			}
		}
		blocks += len(rows[g])
	}
	le := binary.LittleEndian
	bw := bufio.NewWriterSize(w, planIOChunk)
	buf := append(make([]byte, 0, 8*blockLen), planMagic...)
	buf = le.AppendUint32(buf, uint32(p.Version))
	buf = le.AppendUint32(buf, uint32(p.QuadNodes))
	buf = le.AppendUint64(buf, uint64(p.NumNodes))
	buf = le.AppendUint64(buf, uint64(blocks))
	buf = le.AppendUint32(buf, uint32(len(p.Fingerprint)))
	bw.Write(buf)
	bw.WriteString(p.Fingerprint)
	// bufio keeps the first write error and returns it from Flush.
	for _, row := range rows {
		bw.Write(le.AppendUint32(buf[:0], uint32(len(row))))
	}
	for _, row := range rows {
		for _, k := range row {
			bw.Write(le.AppendUint32(buf[:0], uint32(cg.pid[k])))
		}
	}
	// A group's nodes are consecutive in the file: their blocks are encoded
	// into one piece, each group block read in order into its lanes' blocks.
	blockBytes := 8 * blockLen
	scratch := make([]byte, blockBytes)
	for grp := 0; grp+1 < len(cg.start); grp++ {
		var at [corrLanes]int // byte offset of each lane's next block
		n := 0
		for l := range at {
			at[l] = n * blockBytes
			if g := corrLanes*grp + l; g < len(rows) {
				n += len(rows[g])
			}
		}
		buf = slices.Grow(buf[:0], n*blockBytes)[:n*blockBytes]
		for k := cg.start[grp]; k < cg.start[grp+1]; k++ {
			var dst [corrLanes][]byte
			for l := range dst {
				dst[l] = scratch // a lane without the block writes to scratch
				if cg.lanes[k]&(1<<l) != 0 {
					dst[l] = buf[at[l] : at[l]+blockBytes : at[l]+blockBytes]
					at[l] += blockBytes
				}
			}
			d0, d1, d2, d3 := dst[0], dst[1], dst[2], dst[3]
			blk := cg.block(k, nq)
			for s := 0; s < nq; s++ {
				e := blk[s*corrStride : (s+1)*corrStride : (s+1)*corrStride]
				for pl := 0; pl < symPlanes; pl++ {
					o := 8 * (pl*nq + s)
					le.PutUint64(d0[o:], math.Float64bits(e[corrLanes*pl]))
					le.PutUint64(d1[o:], math.Float64bits(e[corrLanes*pl+1]))
					le.PutUint64(d2[o:], math.Float64bits(e[corrLanes*pl+2]))
					le.PutUint64(d3[o:], math.Float64bits(e[corrLanes*pl+3]))
				}
			}
		}
		bw.Write(buf)
	}
	return bw.Flush()
}

// LoadPlan reads and version-checks a plan written by SavePlan. It holds
// every count the file declares against the file's size before allocating,
// so a damaged or foreign file costs an error (wrapping ErrPlanFormat), never
// a panic or an allocation the file could not fill.
func LoadPlan(path string) (*QuadPlan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	p, err := readPlan(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("bie: load plan %s: %w", path, err)
	}
	return p, nil
}

// readPlan decodes a plan file of exactly size bytes from r.
func readPlan(r io.Reader, size int64) (*QuadPlan, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrPlanFormat, fmt.Sprintf(format, args...))
	}
	if size < int64(planHeaderLen) {
		return nil, bad("%d bytes, shorter than the header", size)
	}
	pr := planReader{r: r}
	hdr, err := pr.next(planHeaderLen)
	if err != nil {
		return nil, err
	}
	if string(hdr[:len(planMagic)]) != planMagic {
		return nil, bad("magic %q", hdr[:len(planMagic)])
	}
	le := binary.LittleEndian
	hdr = hdr[len(planMagic):]
	version, quad := le.Uint32(hdr), le.Uint32(hdr[4:])
	nodes, blocks, fpLen := le.Uint64(hdr[8:]), le.Uint64(hdr[16:]), le.Uint32(hdr[24:])
	if version != PlanVersion {
		return nil, bad("version %d, want %d", version, PlanVersion)
	}
	if quad < 1 || quad > planMaxQuad {
		return nil, bad("QuadNodes %d", quad)
	}
	nq := uint64(quad) * uint64(quad)
	blockLen := symPlanes * nq
	perBlock := 4 + 8*blockLen // a patch id and the planes
	rest := uint64(size) - uint64(planHeaderLen)
	// Bound each count by what the file could hold before multiplying, so
	// the products below cannot overflow; nodes ≤ blocks because every node
	// has a block.
	if uint64(fpLen) > rest || blocks > (rest-uint64(fpLen))/perBlock || nodes > blocks ||
		uint64(fpLen)+4*nodes+blocks*perBlock != rest || nodes%nq != 0 {
		return nil, bad("%d nodes and %d blocks of %d values do not make a file of %d bytes", nodes, blocks, blockLen, size)
	}
	// From here on every length is one the file's size vouches for.
	fp, err := pr.next(int(fpLen))
	if err != nil {
		return nil, err
	}
	p := &QuadPlan{
		Version:     int(version),
		Fingerprint: string(fp),
		QuadNodes:   int(quad),
		NumNodes:    int(nodes),
	}
	index, err := pr.next(int(4 * (nodes + blocks)))
	if err != nil {
		return nil, err
	}
	counts, pids := index[:4*nodes], index[4*nodes:]
	flat := make([]int, blocks)
	rows := make([][]int, nodes)
	var used uint64
	for g := range rows {
		n := uint64(le.Uint32(counts[4*g:]))
		if n == 0 || n > blocks-used {
			return nil, bad("node %d declares %d blocks, %d of %d left", g, n, blocks-used, blocks)
		}
		rows[g] = flat[used : used+n : used+n]
		used += n
	}
	if used != blocks {
		return nil, bad("nodes declare %d blocks, header %d", used, blocks)
	}
	patches := nodes / nq
	for k := range flat {
		pid := uint64(le.Uint32(pids[4*k:]))
		if pid >= patches {
			return nil, bad("block %d names patch %d of %d", k, pid, patches)
		}
		flat[k] = int(pid)
	}
	// Every group block holds at least one file block, so the planes take
	// at most corrLanes times the file's floats. A group's nodes are
	// consecutive in the file: their blocks are read in one piece, and each
	// group block is written in order from its lanes' blocks, a lane
	// without one reading zeros.
	cg := &p.groups
	cg.layout(int(nodes), 0, int(nodes), int(nq), rows)
	blockBytes := int(8 * blockLen)
	zeros := make([]byte, blockBytes)
	for grp := 0; grp+1 < len(cg.start); grp++ {
		var at [corrLanes]int // byte offset of each lane's next block
		n := 0
		for l := range at {
			at[l] = n
			if g := corrLanes*grp + l; g < len(rows) {
				n += len(rows[g]) * blockBytes
			}
		}
		b, err := pr.next(n)
		if err != nil {
			return nil, err
		}
		for k := cg.start[grp]; k < cg.start[grp+1]; k++ {
			var src [corrLanes][]byte
			for l := range src {
				src[l] = zeros
				if cg.lanes[k]&(1<<l) != 0 {
					src[l] = b[at[l] : at[l]+blockBytes : at[l]+blockBytes]
					at[l] += blockBytes
				}
			}
			s0, s1, s2, s3 := src[0], src[1], src[2], src[3]
			blk := cg.block(k, int(nq))
			for s := 0; s < int(nq); s++ {
				d := blk[s*corrStride : (s+1)*corrStride : (s+1)*corrStride]
				for pl := 0; pl < symPlanes; pl++ {
					o := 8 * (pl*int(nq) + s)
					d[corrLanes*pl] = math.Float64frombits(le.Uint64(s0[o:]))
					d[corrLanes*pl+1] = math.Float64frombits(le.Uint64(s1[o:]))
					d[corrLanes*pl+2] = math.Float64frombits(le.Uint64(s2[o:]))
					d[corrLanes*pl+3] = math.Float64frombits(le.Uint64(s3[o:]))
				}
			}
		}
	}
	return p, nil
}

// planReader reads the plan file's sections through one reused buffer.
type planReader struct {
	r   io.Reader
	buf []byte
}

// next reads exactly n bytes; the slice is valid until the next call.
// Running out of file is a format error, any other failure the reader's own.
func (pr *planReader) next(n int) ([]byte, error) {
	if cap(pr.buf) < n {
		pr.buf = make([]byte, n)
	}
	b := pr.buf[:n]
	if _, err := io.ReadFull(pr.r, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: file ends early", ErrPlanFormat)
		}
		return nil, err
	}
	return b, nil
}

// PlanSource reports how PlanFor satisfied a request.
type PlanSource string

const (
	// PlanBuilt: no usable cache entry; the plan was computed.
	PlanBuilt PlanSource = "built"
	// PlanDisk: loaded from the on-disk cache by fingerprint.
	PlanDisk PlanSource = "disk"
	// PlanShared: served from an in-memory share (reported by layers that
	// memoize PlanFor, e.g. the scenario geometry cache — PlanFor itself
	// never returns it).
	PlanShared PlanSource = "memory"
)

// PlanPath returns the cache file of a fingerprint under dir.
func PlanPath(dir, fingerprint string) string {
	return filepath.Join(dir, fingerprint+".qplan")
}

// planWarn holds the one-shot warning state per degraded-cache cause: the
// cache is best-effort, so failures must not kill the run, but they must
// also not be silent — each cause logs once per process and counts in the
// registry on every occurrence. Warnings go to slog's default logger with
// the cache path, plan fingerprint, and cause as fields, matching the health
// monitor's record shape so a run's structured log stream is greppable by
// one schema.
var planWarn struct {
	corrupt, incompatible, store sync.Once
}

// PlanFor returns the correction plan of s, consulting the content-addressed
// disk cache under cacheDir first (empty = no cache). A cache miss builds
// the plan with the given worker count and stores it for the next process;
// a corrupt or incompatible entry is rebuilt and overwritten rather than
// trusted. The store is best-effort: an unwritable cache degrades to an
// uncached build — the freshly built plan is always returned and must not
// take the run (or every sweep point sharing the geometry) down with it.
//
// Every cache outcome is observable: reg (nil ok) counts
// bie.plan.cache.{hit,miss,corrupt,incompatible,store_error} and times
// builds under the bie.plan.build span, and each degraded-cache cause
// (corrupt entry, incompatible entry, failed store) additionally logs one
// warning per process. These counters are invocation-scoped — they depend on
// the cache state this process found, like the manifest's PlanStats — so
// consumers strip the "bie.plan." prefix from resume-stable aggregates.
func PlanFor(s *Surface, workers int, cacheDir string, reg *telemetry.Registry) (*QuadPlan, PlanSource, error) {
	fp := PlanFingerprint(s)
	if cacheDir != "" {
		path := PlanPath(cacheDir, fp)
		p, err := LoadPlan(path)
		switch {
		case err == nil:
			if cerr := p.Compatible(s); cerr == nil {
				reg.Counter("bie.plan.cache.hit").Inc()
				return p, PlanDisk, nil
			} else {
				reg.Counter("bie.plan.cache.incompatible").Inc()
				planWarn.incompatible.Do(func() {
					slog.Warn("plan cache entry incompatible, rebuilding",
						"layer", "bie.plan", "path", path, "fingerprint", fp, "err", cerr.Error())
				})
			}
		case os.IsNotExist(err):
			reg.Counter("bie.plan.cache.miss").Inc()
		default:
			// The file exists but could not be read or decoded: a corrupt
			// entry (torn write from a pre-atomic-rename era, bit rot, or a
			// foreign file under the cache key). Rebuild and overwrite.
			reg.Counter("bie.plan.cache.corrupt").Inc()
			planWarn.corrupt.Do(func() {
				slog.Warn("plan cache entry unreadable, rebuilding",
					"layer", "bie.plan", "path", path, "fingerprint", fp, "err", err.Error())
			})
		}
	}
	stop := telemetry.Start(reg, "bie.plan.build")
	p := BuildQuadPlan(s, workers)
	stop()
	if cacheDir != "" {
		if err := SavePlan(PlanPath(cacheDir, fp), p); err != nil {
			reg.Counter("bie.plan.cache.store_error").Inc()
			planWarn.store.Do(func() {
				slog.Warn("plan cache store failed, continuing uncached",
					"layer", "bie.plan", "fingerprint", fp, "err", err.Error())
			})
		}
	}
	return p, PlanBuilt, nil
}
