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
	"sync"
	"sync/atomic"

	"rbcflow/internal/telemetry"
)

// PlanVersion is bumped whenever the on-disk plan layout or the numerics
// that produce the blocks change; LoadPlan rejects mismatches instead of
// mis-decoding, and the version participates in the fingerprint so a stale
// cache entry can never be confused with a current one.
const PlanVersion = 2

// CorrBlock is one precomputed local correction: the contribution of one
// near patch's coarse density to one target node, combining −(coarse direct)
// with +(adaptive fine quadrature). The Stokes double layer
// D_ab = −3/(4π)(r·n) r_a r_b/|r|⁵ is symmetric in (a, b) at every source
// point, and interpolating a quadrature point onto a coarse node multiplies
// it by a scalar weight, so the 3×3 sub-block of every source node is
// symmetric and only its upper triangle is stored: M holds symPlanes planes
// of NQ values each, in the order xx, xy, xz, yy, yz, zz, plane p's entry
// for source node m at M[p·NQ+m].
type CorrBlock struct {
	Pid int
	M   []float64
}

// symPlanes is the number of independent entries of a symmetric 3×3 block.
const symPlanes = 6

// apply contracts the block with the patch's interleaved coarse density
// (3·NQ values) and returns the three velocity components.
func (cb CorrBlock) apply(phi []float64) (a0, a1, a2 float64) {
	nq := len(cb.M) / symPlanes
	xx, xy, xz := cb.M[:nq], cb.M[nq:2*nq], cb.M[2*nq:3*nq]
	yy, yz, zz := cb.M[3*nq:4*nq], cb.M[4*nq:5*nq], cb.M[5*nq:6*nq]
	// Equal lengths, restated so the loop body carries no bounds checks.
	xy, xz, yy, yz, zz = xy[:len(xx)], xz[:len(xx)], yy[:len(xx)], yz[:len(xx)], zz[:len(xx)]
	for m := range xx {
		p := phi[3*m : 3*m+3 : 3*m+3]
		a0 += xx[m]*p[0] + xy[m]*p[1] + xz[m]*p[2]
		a1 += xy[m]*p[0] + yy[m]*p[1] + yz[m]*p[2]
		a2 += xz[m]*p[0] + yz[m]*p[1] + zz[m]*p[2]
	}
	return a0, a1, a2
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
	// Partial marks a rank-local plan: Corr rows outside the owning rank's
	// node range are nil. Partial plans cannot be saved or shared.
	Partial bool
	// Corr[g] are the correction blocks of global coarse node g, ordered by
	// ascending patch id (the deterministic nearPatches order).
	Corr [][]CorrBlock
}

// Blocks returns the correction blocks of global node g. Apply reads them
// from every pool thread; the plan is never written after its build.
func (p *QuadPlan) Blocks(g int) []CorrBlock { return p.Corr[g] }

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
	n := s.NumNodes()
	p := &QuadPlan{
		Version:     PlanVersion,
		Fingerprint: PlanFingerprint(s),
		QuadNodes:   s.P.QuadNodes,
		NumNodes:    n,
		Corr:        make([][]CorrBlock, n),
	}
	buildCorrRange(p.Corr, s, 0, n, workers)
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
		Corr:      make([][]CorrBlock, s.NumNodes()),
	}
	buildCorrRange(p.Corr, s, lo, hi, workers)
	return p
}

// buildCorrRange fills corr[g] for g in [lo, hi) using `workers` goroutines.
// Work is dealt in patch-sized chunks (NQ consecutive targets) so a worker's
// adaptiveCtx cache sees runs of targets refining into the same patches;
// the chunk an individual worker processes never influences the values
// written, only which private cache fills them in.
func buildCorrRange(corr [][]CorrBlock, s *Surface, lo, hi, workers int) {
	if hi <= lo {
		return
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > hi-lo {
		workers = hi - lo
	}
	// Fill the shared bbox cache before the pool starts: nearPatches would
	// do it lazily through a sync.Once, but doing it here keeps the workers'
	// first chunks uniform.
	s.bboxOnce.Do(s.fillBBoxes)
	if workers == 1 {
		ac := newAdaptiveCtx(s.P.QuadNodes)
		for g := lo; g < hi; g++ {
			corr[g] = buildNodeCorr(ac, s, g)
		}
		return
	}
	chunk := s.NQ
	var next int64 = int64(lo)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ac := newAdaptiveCtx(s.P.QuadNodes)
			for {
				g0 := int(atomic.AddInt64(&next, int64(chunk))) - chunk
				if g0 >= hi {
					return
				}
				g1 := g0 + chunk
				if g1 > hi {
					g1 = hi
				}
				for g := g0; g < g1; g++ {
					corr[g] = buildNodeCorr(ac, s, g)
				}
			}
		}()
	}
	wg.Wait()
}

// buildNodeCorr assembles, for one target node, the combined correction
// block −W(x)·ϕ_j + A_j(x)·ϕ_j of every near patch j, where A_j is the
// adaptive singular/near-singular quadrature of adaptive.go (the own
// patch's weakly singular PV integral, a proper integral for every other
// near patch). Both parts are symmetric per source node and land in the same
// six planes. The ½ϕ interior jump is added analytically in Apply.
func buildNodeCorr(ac *adaptiveCtx, s *Surface, g int) []CorrBlock {
	nq := s.NQ
	x := s.Pts[g]
	own := s.PatchOf(g)
	near := s.nearPatches(x, own)
	out := make([]CorrBlock, len(near))
	slab := make([]float64, len(near)*symPlanes*nq)
	for i, j := range near {
		m := slab[i*symPlanes*nq : (i+1)*symPlanes*nq : (i+1)*symPlanes*nq]
		// −(coarse direct) part.
		for mm := 0; mm < nq; mm++ {
			idx := j*nq + mm
			addDLBlock(m, nq, mm, x, s.Pts[idx], s.Nrm[idx], -s.W[idx])
		}
		// +(adaptive quadrature) part.
		ac.dlBlock(m, s.F.Patches[j], x)
		out[i] = CorrBlock{Pid: j, M: m}
	}
	return out
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

func writePlan(w io.Writer, p *QuadPlan) error {
	if p.QuadNodes < 1 || p.QuadNodes > planMaxQuad || len(p.Corr) != p.NumNodes || p.NumNodes%(p.QuadNodes*p.QuadNodes) != 0 {
		return fmt.Errorf("plan header out of range (QuadNodes %d, %d rows for %d nodes)", p.QuadNodes, len(p.Corr), p.NumNodes)
	}
	// What readPlan will insist on, checked here so that a file it would
	// reject is never written.
	nq := p.QuadNodes * p.QuadNodes
	blockLen, patches := symPlanes*nq, p.NumNodes/nq
	blocks := 0
	for g, row := range p.Corr {
		if len(row) == 0 {
			return fmt.Errorf("node %d has no blocks", g)
		}
		for _, cb := range row {
			if len(cb.M) != blockLen || cb.Pid < 0 || cb.Pid >= patches {
				return fmt.Errorf("node %d: block of patch %d (of %d) has %d values, want %d", g, cb.Pid, patches, len(cb.M), blockLen)
			}
		}
		blocks += len(row)
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
	for _, row := range p.Corr {
		bw.Write(le.AppendUint32(buf[:0], uint32(len(row))))
	}
	for _, row := range p.Corr {
		for _, cb := range row {
			bw.Write(le.AppendUint32(buf[:0], uint32(cb.Pid)))
		}
	}
	for _, row := range p.Corr {
		for _, cb := range row {
			buf = buf[:0]
			for _, v := range cb.M {
				buf = le.AppendUint64(buf, math.Float64bits(v))
			}
			bw.Write(buf)
		}
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
		Corr:        make([][]CorrBlock, nodes),
	}
	index, err := pr.next(int(4 * (nodes + blocks)))
	if err != nil {
		return nil, err
	}
	counts, pids := index[:4*nodes], index[4*nodes:]
	cbs := make([]CorrBlock, blocks)
	var used uint64
	for g := range p.Corr {
		n := uint64(le.Uint32(counts[4*g:]))
		if n == 0 || n > blocks-used {
			return nil, bad("node %d declares %d blocks, %d of %d left", g, n, blocks-used, blocks)
		}
		p.Corr[g] = cbs[used : used+n : used+n]
		used += n
	}
	if used != blocks {
		return nil, bad("nodes declare %d blocks, header %d", used, blocks)
	}
	patches := nodes / nq
	for k := range cbs {
		pid := uint64(le.Uint32(pids[4*k:]))
		if pid >= patches {
			return nil, bad("block %d names patch %d of %d", k, pid, patches)
		}
		cbs[k].Pid = int(pid)
	}
	slab := make([]float64, blocks*blockLen)
	for rest := slab; len(rest) > 0; {
		part := rest[:min(len(rest), planIOChunk/8)]
		b, err := pr.next(8 * len(part))
		if err != nil {
			return nil, err
		}
		for i := range part {
			part[i] = math.Float64frombits(le.Uint64(b[8*i:]))
		}
		rest = rest[len(part):]
	}
	for k := range cbs {
		lo, hi := uint64(k)*blockLen, uint64(k+1)*blockLen
		cbs[k].M = slab[lo:hi:hi]
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
