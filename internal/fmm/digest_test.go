package fmm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"rbcflow/internal/kernels"
	"rbcflow/internal/par"
)

// pairwise runs a kernel's EvalBlock as per-pair Eval calls in the block
// loop's order: the portable reference, whatever block kernel the CPU
// selects for the kernel itself.
type pairwise struct{ kernels.Kernel }

func (p pairwise) EvalBlock(dst []float64, trg, srcPos [][3]float64, srcQ []float64) {
	ds, do := p.SrcDim(), p.OutDim()
	for t, x := range trg {
		for s, y := range srcPos {
			p.Eval(dst[t*do:(t+1)*do], x[0]-y[0], x[1]-y[1], x[2]-y[2], srcQ[s*ds:(s+1)*ds])
		}
	}
}

// cellLattice is a free-space suspension in the shape of the free_lattice
// workload, smaller: n×n×n biconcave cells of radius 1 at gaps 2.3×2.3×1.2
// with seeded jitter ≤ 0.02, m surface points each, and force densities of
// unit scale. The targets are the surface points followed by one point 2.5
// above each top cell, in leaves without sources (the M2P descent).
func cellLattice(n, m int, seed int64) (src [][3]float64, q []float64, trg [][3]float64) {
	rng := rand.New(rand.NewSource(seed))
	jitter := func() float64 { return 0.02 * (2*rng.Float64() - 1) }
	var above [][3]float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				ctr := [3]float64{2.3*float64(i) + jitter(), 2.3*float64(j) + jitter(), 1.2*float64(k) + jitter()}
				if k == n-1 {
					above = append(above, [3]float64{ctr[0], ctr[1], ctr[2] + 2.5})
				}
				for p := 0; p < m; p++ {
					// Fibonacci points on the sphere, pressed onto the
					// Evans–Fung biconcave profile.
					ct := 1 - (2*float64(p)+1)/float64(m)
					st := math.Sqrt(1 - ct*ct)
					phi := float64(p) * math.Pi * (3 - math.Sqrt(5))
					h := 0.5 * st * (0.207 + 2.003*st*st - 1.123*st*st*st*st)
					if ct < 0 {
						h = -h
					}
					src = append(src, [3]float64{ctr[0] + st*math.Cos(phi), ctr[1] + st*math.Sin(phi), ctr[2] + h})
				}
			}
		}
	}
	q = make([]float64, 3*len(src))
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	trg = append(append([][3]float64(nil), src...), above...)
	return src, q, trg
}

func outputDigest(out []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range out {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// evaluateDistRanks runs EvaluateDist at p ranks with the sources and the
// targets split in rank blocks and returns the targets' values in order.
func evaluateDistRanks(p int, cfg Config, src [][3]float64, q []float64, trg [][3]float64) []float64 {
	parts := make([][]float64, p)
	par.Run(p, par.SKX(), func(c *par.Comm) {
		slo, shi := par.BlockRange(len(src), p, c.Rank())
		tlo, thi := par.BlockRange(len(trg), p, c.Rank())
		parts[c.Rank()] = EvaluateDist(c, NewEvaluator(cfg), src[slo:shi], q[3*slo:3*shi], trg[tlo:thi])
	})
	var out []float64
	for _, r := range parts {
		out = append(out, r...)
	}
	return out
}

// TestStokesletDigestsPinned pins the output bits of the cell↔cell sum's
// four entry points on a lattice of cells: the tree, the distributed tree at
// one and at three ranks, and the direct sum. The digests were recorded with
// the portable Go Stokeslet loop, before any vector kernel existed; the
// block kernel the CPU selects and the per-pair reference must both still
// produce them.
func TestStokesletDigestsPinned(t *testing.T) {
	src, q, trg := cellLattice(4, 40, 52)
	want := map[string]string{
		"tree":   "46fd60c4ecee7dca7e4605f083ddffff981281bbac74a9308e1cd29df46e6d9b",
		"dist1":  "46fd60c4ecee7dca7e4605f083ddffff981281bbac74a9308e1cd29df46e6d9b",
		"dist3":  "de33d9d0651130bf26379ad5cb48e0ff69d08f083b27951a0e650e6c68221449",
		"direct": "069a3acef6f8ef21838559496d7950c8162f05628863757c6e947b9fdd3564f8",
	}
	for name, k := range map[string]kernels.Kernel{"block": kernels.Stokeslet{Mu: 1}, "pairwise": pairwise{kernels.Stokeslet{Mu: 1}}} {
		cfg := Config{Kernel: k, Order: 3, LeafSize: 32, DirectBelow: 1}
		e := NewEvaluator(cfg)
		lo, hi := bbox(src, trg)
		if d := buildTree(e.cfg, lo, hi, src, q, e.ci).depth; d < 3 {
			t.Fatalf("%s: tree depth %d, want at least 3", name, d)
		}
		got := map[string]string{
			"tree":   outputDigest(e.Evaluate(src, q, trg)),
			"dist1":  outputDigest(evaluateDistRanks(1, cfg, src, q, trg)),
			"dist3":  outputDigest(evaluateDistRanks(3, cfg, src, q, trg)),
			"direct": outputDigest(e.Direct(src, q, trg)),
		}
		for _, call := range []string{"tree", "dist1", "dist3", "direct"} {
			if got[call] != want[call] {
				t.Errorf("%s kernel, %s: digest %s, want %s", name, call, got[call], want[call])
			}
		}
	}
}

// counting counts the source–target pairs a kernel's block calls cover.
type counting struct {
	kernels.Kernel
	pairs *atomic.Int64
}

func (c counting) EvalBlock(dst []float64, trg, srcPos [][3]float64, srcQ []float64) {
	c.pairs.Add(int64(len(trg) * len(srcPos)))
	c.Kernel.EvalBlock(dst, trg, srcPos, srcQ)
}

// BenchmarkTreeEvaluate runs the tree FMM at the free_lattice workload's
// size: 216 cells of 40 points (8640 sources and targets), order 3, leaf
// 64. ns/pair divides the time by the kernel pairs the tree evaluates (M2L,
// M2P and P2P), counted on one untimed call.
func BenchmarkTreeEvaluate(b *testing.B) {
	src, q, _ := cellLattice(6, 40, 1)
	cfg := Config{Kernel: kernels.Stokeslet{Mu: 1}, Order: 3, LeafSize: 64, DirectBelow: 1}
	var pairs atomic.Int64
	counted := cfg
	counted.Kernel = counting{cfg.Kernel, &pairs}
	NewEvaluator(counted).Evaluate(src, q, src)
	e := NewEvaluator(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Evaluate(src, q, src)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs.Load()), "ns/pair")
	b.ReportMetric(float64(pairs.Load()), "pairs/op")
}
