package bie

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rbcflow/internal/forest"
	"rbcflow/internal/patch"
	"rbcflow/internal/quadrature"
)

// torusOfOrder is the light torus of rigidwall_test.go with patches of
// polynomial order q.
func torusOfOrder(q int) *Surface {
	const nu, nv, R, r = 6, 4, 3.0, 1.0
	var roots []*patch.Patch
	for a := 0; a < nu; a++ {
		for b := 0; b < nv; b++ {
			a0, b0 := 2*math.Pi*float64(a)/nu, 2*math.Pi*float64(b)/nv
			roots = append(roots, patch.FromFunc(q, func(u, v float64) [3]float64 {
				th := a0 + (u+1)*math.Pi/nu
				ps := b0 + (v+1)*math.Pi/nv
				rho := R + r*math.Cos(ps)
				return [3]float64{rho * math.Cos(th), rho * math.Sin(th), r * math.Sin(ps)}
			}))
		}
	}
	return NewSurface(forest.NewUniform(roots, 0), lightParams())
}

// checkIntegrateBlock: on rectangles of every patch of s — cached ones at
// depth 0, 3 and 6 and the deep scratch rectangle — the AVX2 block kernel
// adds the same bits to a block as the portable loop, for coarse orders qcs,
// random prior blocks with signed zeros, and targets around the rectangle
// and exactly on its nodes 0, 17 and 35 (the portable loop skips a node at
// the target; the kernel adds its ±0 products).
func checkIntegrateBlock(t *testing.T, s *Surface, seed int64, qcs ...int) {
	t.Helper()
	if !useAVX2 {
		t.Skip("this CPU has no AVX2: the portable loop is the only kernel")
	}
	rng := rand.New(rand.NewSource(seed))
	for _, qc := range qcs {
		ac := newAdaptiveCtx(qc)
		n := ac.qi * ac.qi
		for pid, pp := range s.F.Patches {
			for _, d := range []uint64{0, 3, adaptCacheDepth, adaptCacheDepth + 4} {
				iu, iv := rng.Uint64()%(1<<d), rng.Uint64()%(1<<d)
				rg := ac.getRect(pp, d, iu, d, iv)
				if rg.q == nil {
					ac.allocQuad(rg)
				}
				ac.fillQuad(rg, pp, d, iu, d, iv)
				targets, node := rectTargets(rng, rg, n)
				for ti, x := range targets {
					want := randomSigned(symPlanes*qc*qc, rng.Int63())
					got := append([]float64(nil), want...)
					integrateBlockGo(want, rg, ac.m1, qc, x)
					integrateBlockAVX2(rg.q, rg.cv, rg.cu, ac.kp, ac.m1, got, qc, &x)
					for k := range got {
						if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
							sameBits(t, fmt.Sprintf("qc %d patch %d depth %d target %d (on node %d)", qc, pid, d, ti, node[ti]), got, want)
						}
					}
				}
			}
		}
	}
}

// checkRectFill: at coarse order qc, on rectangles of every patch of s at
// every depth from 0 to adaptMaxDepth (cached and deep), the rectangle's 3×3
// samples, its quadrature frame and its coarse rows — served by the
// context's line memo and filled on this machine's kernels — are the
// portable evaluator's positions and derivatives (TensorDerivs) and
// LagrangeCoeffsInto's rows at parameters computed here from the
// rectangle's span, to the bit, the frame's weighted cross products
// computed as fillQuad's scalar loop did. Each rectangle is filled by a
// warm context (which has served every rectangle before it, and whose memo
// is cleared at its cap midway) and by a fresh one. The intervals at the
// ends of [-1, 1] put sample lines on the basis's end nodes, and the check
// fails unless some parameter lands exactly on a basis or coarse node
// (LagrangeCoeffsInto's unit-row branch).
func checkRectFill(t *testing.T, s *Surface, seed int64, qc int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	warm := newAdaptiveCtx(qc)
	qi, n := warm.qi, warm.qi*warm.qi
	cn, _ := quadrature.GaussLegendre(qc)
	cbw := quadrature.BaryWeights(cn)
	onNode := 0
	isNode := func(x float64, nodes []float64) {
		for _, v := range nodes {
			if x == v {
				onNode++
			}
		}
	}
	for pid, pp := range s.F.Patches {
		if pid == len(s.F.Patches)/2 {
			warm.nLines = lineMemoCap
		}
		for d := uint64(0); d <= adaptMaxDepth; d++ {
			iu, iv := rng.Uint64()%(1<<d), rng.Uint64()%(1<<d)
			switch pid % 3 {
			case 0:
				iu = 0
			case 1:
				iv = 1<<d - 1
			}
			u0, u1 := span(d, iu)
			v0, v1 := span(d, iv)
			us, vs := []float64{u0, (u0 + u1) / 2, u1}, []float64{v0, (v0 + v1) / 2, v1}
			pos, du, dv := make([][3]float64, 9), make([][3]float64, 9), make([][3]float64, 9)
			pp.TensorDerivs(us, vs, pos, du, dv)
			wantSamples := pos
			for _, x := range append(us, vs...) {
				isNode(x, patch.Nodes(pp.Q))
			}

			tu, tv := make([]float64, qi), make([]float64, qi)
			wantCu, wantCv := make([]float64, qi*qc), make([]float64, qi*qc)
			for i := 0; i < qi; i++ {
				tu[i] = u0 + (u1-u0)*(warm.iNodes[i]+1)/2
				tv[i] = v0 + (v1-v0)*(warm.iNodes[i]+1)/2
				quadrature.LagrangeCoeffsInto(wantCu[i*qc:(i+1)*qc], cn, cbw, tu[i])
				quadrature.LagrangeCoeffsInto(wantCv[i*qc:(i+1)*qc], cn, cbw, tv[i])
				isNode(tu[i], cn)
				isNode(tv[i], cn)
				isNode(tu[i], patch.Nodes(pp.Q))
			}
			pos, du, dv = make([][3]float64, n), make([][3]float64, n), make([][3]float64, n)
			pp.TensorDerivs(tu, tv, pos, du, dv)
			scale := (u1 - u0) * (v1 - v0) / 4
			want := make([]float64, 6*n)
			for i := 0; i < qi; i++ {
				for j := 0; j < qi; j++ {
					k := i*qi + j
					a, b := du[k], dv[k]
					w := warm.iW[i] * warm.iW[j] * scale
					cr := [3]float64{
						float64(a[1]*b[2]) - float64(a[2]*b[1]),
						float64(a[2]*b[0]) - float64(a[0]*b[2]),
						float64(a[0]*b[1]) - float64(a[1]*b[0]),
					}
					for c := 0; c < 3; c++ {
						want[c*n+k], want[(3+c)*n+k] = pos[k][c], cr[c]*w
					}
				}
			}

			for _, ctx := range []struct {
				name string
				ac   *adaptiveCtx
			}{{"warm", warm}, {"fresh", newAdaptiveCtx(qc)}} {
				label := fmt.Sprintf("%s context: patch %d depth %d (%d, %d)", ctx.name, pid, d, iu, iv)
				rg := &rectGeom{}
				ctx.ac.fillSamples(rg, pp, d, iu, d, iv)
				ctx.ac.allocQuad(rg)
				ctx.ac.fillQuad(rg, pp, d, iu, d, iv)
				for k := range wantSamples {
					sameBits(t, label+" samples", rg.samples[k][:], wantSamples[k][:])
				}
				sameBits(t, label+" frame", rg.q, want)
				sameBits(t, label+" u rows", rg.cu, wantCu)
				sameBits(t, label+" v rows", rg.cv[:qi*qc], wantCv)
				if len(rg.cv) < qi*qc+3 {
					t.Fatalf("%s: v rows carry %d values of slack, want 3", label, len(rg.cv)-qi*qc)
				}
			}
		}
	}
	if warm.nLines >= lineMemoCap {
		t.Fatalf("the memo holds %d intervals, past its cap %d", warm.nLines, lineMemoCap)
	}
	if onNode == 0 {
		t.Fatalf("no parameter landed on a node")
	}
}

// TestRectFillKernelsBitIdentical: the sample and frame kernels and the line
// memo behind a rectangle's fill on the light torus at patch orders 6 and 8,
// at its QuadNodes and at coarse order 6 (the coarse nodes are the rule's,
// so some mapped nodes land on them), and on the capsule; the registered
// walls are checked from the external test package.
func TestRectFillKernelsBitIdentical(t *testing.T) {
	for _, q := range []int{6, 8} {
		s := torusOfOrder(q)
		checkRectFill(t, s, int64(70+q), s.P.QuadNodes)
		checkRectFill(t, s, int64(72+q), adaptOrder)
	}
	s := capsuleSurface()
	checkRectFill(t, s, 71, s.P.QuadNodes)
}

// TestIntegrateBlockKernelBitIdentical: the block kernel on the light torus
// at patch orders 6 and 8, for every coarse order from 1 to 10 (each number
// of live lanes in the last group of four), and on the capsule; the
// registered walls are checked from the external test package.
func TestIntegrateBlockKernelBitIdentical(t *testing.T) {
	for _, q := range []int{6, 8} {
		checkIntegrateBlock(t, torusOfOrder(q), int64(60+q), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	}
	checkIntegrateBlock(t, capsuleSurface(), 61, 5, 9)
}

// TestPlanBuildOnBothKernels: a plan built with the block kernel at one
// worker, two and four, GOMAXPROCS 1, 2 and 4, is the plan the block's
// portable loop builds at one worker, to the bit, on the light torus at
// patch orders 6 and 8 — whichever worker caches a patch's rectangles, and
// whenever it drops them (the rectangle fills run the same kernels in both;
// TestRectFillKernelsBitIdentical holds those to their portable loop).
func TestPlanBuildOnBothKernels(t *testing.T) {
	if !useAVX2 {
		t.Skip("this CPU has no AVX2: the portable loop is the only kernel")
	}
	for _, q := range []int{6, 8} {
		s := torusOfOrder(q)
		want := buildOnPortableLoops(s, 1)
		for _, procs := range []int{1, 2, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				samePlan(t, BuildQuadPlan(s, procs), want, fmt.Sprintf("order %d, GOMAXPROCS=%d", q, procs))
			}()
		}
	}
}

// buildOnPortableLoops builds s's plan with the block kernel off.
func buildOnPortableLoops(s *Surface, workers int) *QuadPlan {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	return BuildQuadPlan(s, workers)
}

var sinkBlock []float64

// BenchmarkIntegrateBlock times one block integration of the plan build
// (36 nodes, coarse order 5 and 9) per kernel, in ns per rectangle, over 200
// rectangles of the light torus at targets a tenth to twice their diameter
// away.
func BenchmarkIntegrateBlock(b *testing.B) {
	s := torusSurface()
	for _, qc := range []int{5, 9} {
		rng := rand.New(rand.NewSource(58))
		ac := newAdaptiveCtx(qc)
		n := ac.qi * ac.qi
		type rect struct {
			rg *rectGeom
			x  [3]float64
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
			rects = append(rects, rect{rg, x})
		}
		sinkBlock = make([]float64, symPlanes*qc*qc)
		kernels := map[string]func(r *rect){
			"go": func(r *rect) { integrateBlockGo(sinkBlock, r.rg, ac.m1, qc, r.x) },
		}
		if useAVX2 {
			kernels["avx2"] = func(r *rect) {
				integrateBlockAVX2(r.rg.q, r.rg.cv, r.rg.cu, ac.kp, ac.m1, sinkBlock, qc, &r.x)
			}
		}
		for name, run := range kernels {
			b.Run(fmt.Sprintf("qc=%d/kernel=%s", qc, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for j := range rects {
						run(&rects[j])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rects)), "ns/rect")
			})
		}
	}
}
