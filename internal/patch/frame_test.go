package patch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// frameGrid is a 6×6 rule on random parameter lines, with lines exactly on
// a basis node and on the ends of [-1, 1] among them, and random weights
// with signed zeros.
func frameGrid(q int, rng *rand.Rand) (us, vs, wu, wv []float64) {
	us, vs = randomParams(frameNodes, rng), randomParams(frameNodes, rng)
	nodes := Nodes(q)
	us[rng.Intn(frameNodes)] = nodes[rng.Intn(len(nodes))]
	vs[rng.Intn(frameNodes)] = nodes[rng.Intn(len(nodes))]
	us[rng.Intn(frameNodes)], vs[rng.Intn(frameNodes)] = -1, 1
	wu, wv = randomParams(frameNodes, rng), randomParams(frameNodes, rng)
	wu[rng.Intn(frameNodes)] = math.Copysign(0, -1)
	wv[rng.Intn(frameNodes)] = 0
	return us, vs, wu, wv
}

// lines and frameLines tabulate the grid lines ts of order q's basis.
func lines(q int, ts []float64) Lines {
	return TabulateLines(q, ts, make([]float64, (q+1)*len(ts)))
}

func frameLines(q int, ts []float64) FrameLines {
	return TabulateFrameLines(q, ts, make([]float64, 2*(q+1)*len(ts)))
}

func sameFrameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: plane %d node %d: kernel %x, portable loop %x", label, k/36, k%36, got[k], want[k])
		}
	}
}

// TestTensorFrameKernelBitIdentical: on 6×6 grids the AVX2 frame kernel is
// the portable loop to the bit, for random patches of every order up to the
// stack bound (each number of live lanes in the last group of a value row)
// with signed zeros among their values, including lines on basis nodes and
// on the square's edges.
func TestTensorFrameKernelBitIdentical(t *testing.T) {
	if !useAVX2 {
		t.Skip("this CPU has no AVX2: the portable loop is the only kernel")
	}
	rng := rand.New(rand.NewSource(9))
	for q := 1; q < stackNodes; q++ {
		for trial := 0; trial < 20; trial++ {
			p := randomPatch(q, rng)
			p.Val[rng.Intn(len(p.Val))] = [3]float64{0, math.Copysign(0, -1), 0}
			us, vs, wu, wv := frameGrid(q, rng)
			lu, lv := frameLines(q, us), frameLines(q, vs)
			scale := math.Ldexp(rng.Float64(), -rng.Intn(40))
			want, got := make([]float64, 6*36), make([]float64, 6*36)
			p.tensorFrameGo(lu, lv, wu, wv, scale, want)
			p.tensorFrameKernel(lu, lv, wu, wv, scale, got)
			sameFrameBits(t, fmt.Sprintf("order %d trial %d", q, trial), got, want)
		}
	}
}

// TestTensorFrameMatchesTensorDerivs: the frame's planes are TensorDerivs'
// positions and the weighted cross product of its derivatives, on the 6×6
// kernel grid and on grids of other shapes, which take the portable loop.
func TestTensorFrameMatchesTensorDerivs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, shape := range [][2]int{{6, 6}, {3, 5}, {9, 9}} {
		p := randomPatch(8, rng)
		us, vs := randomParams(shape[0], rng), randomParams(shape[1], rng)
		wu, wv := randomParams(shape[0], rng), randomParams(shape[1], rng)
		m := shape[0] * shape[1]
		q := make([]float64, 6*m)
		p.TensorFrame(frameLines(8, us), frameLines(8, vs), wu, wv, 0.3, q)
		pos, du, dv := make([][3]float64, m), make([][3]float64, m), make([][3]float64, m)
		p.TensorDerivs(us, vs, pos, du, dv)
		for i := range us {
			for j := range vs {
				k := i*len(vs) + j
				cr, w := Cross(du[k], dv[k]), wu[i]*wv[j]*0.3
				for d := 0; d < 3; d++ {
					if q[d*m+k] != pos[k][d] || q[(3+d)*m+k] != cr[d]*w {
						t.Fatalf("grid %v node %d component %d: frame (%g, %g), TensorDerivs (%g, %g)", shape, k, d, q[d*m+k], q[(3+d)*m+k], pos[k][d], cr[d]*w)
					}
				}
			}
		}
	}
}

// BenchmarkTensorFrame6x6Order8 times one rectangle fill of the plan build,
// per kernel.
func BenchmarkTensorFrame6x6Order8(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	p := randomPatch(8, rng)
	us, vs, wu, wv := frameGrid(8, rng)
	lu, lv := frameLines(8, us), frameLines(8, vs)
	q := make([]float64, 6*36)
	kernels := map[string]func(){"go": func() { p.tensorFrameGo(lu, lv, wu, wv, 0.5, q) }}
	if useAVX2 {
		kernels["avx2"] = func() { p.tensorFrameKernel(lu, lv, wu, wv, 0.5, q) }
	}
	for name, run := range kernels {
		b.Run("kernel="+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// TestTensorEvalKernelBitIdentical: on 3×3 grids the AVX2 sample kernel is
// the portable loop to the bit, for random patches of every order up to the
// stack bound with signed zeros among their values, including lines on
// basis nodes and on the square's edges.
func TestTensorEvalKernelBitIdentical(t *testing.T) {
	if !useAVX2 {
		t.Skip("this CPU has no AVX2: the portable loop is the only kernel")
	}
	rng := rand.New(rand.NewSource(12))
	for q := 1; q < stackNodes; q++ {
		for trial := 0; trial < 20; trial++ {
			p := randomPatch(q, rng)
			p.Val[rng.Intn(len(p.Val))] = [3]float64{math.Copysign(0, -1), 0, 0}
			us, vs := randomParams(sampleNodes, rng), randomParams(sampleNodes, rng)
			nodes := Nodes(q)
			us[rng.Intn(sampleNodes)] = nodes[rng.Intn(len(nodes))]
			vs[rng.Intn(sampleNodes)] = nodes[rng.Intn(len(nodes))]
			us[rng.Intn(sampleNodes)], vs[rng.Intn(sampleNodes)] = 1, -1
			lu, lv := lines(q, us), lines(q, vs)
			want, got := make([][3]float64, 9), make([][3]float64, 9)
			p.tensorFields(lu.rows, lv.rows, sampleNodes, sampleNodes, want, nil, nil)
			p.TensorEval(lu, lv, got)
			for k := range want {
				for d := 0; d < 3; d++ {
					if math.Float64bits(got[k][d]) != math.Float64bits(want[k][d]) {
						t.Fatalf("order %d trial %d: node %d component %d: kernel %x, portable loop %x", q, trial, k, d, got[k][d], want[k][d])
					}
				}
			}
		}
	}
}

// BenchmarkTensorEval3x3Kernels times one rectangle's samples of the plan
// build, per kernel.
func BenchmarkTensorEval3x3Kernels(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	p := randomPatch(8, rng)
	lu, lv := lines(8, randomParams(sampleNodes, rng)), lines(8, randomParams(sampleNodes, rng))
	pos := make([][3]float64, 9)
	kernels := map[string]func(){"go": func() { p.tensorFields(lu.rows, lv.rows, sampleNodes, sampleNodes, pos, nil, nil) }}
	if useAVX2 {
		kernels["avx2"] = func() { p.TensorEval(lu, lv, pos) }
	}
	for name, run := range kernels {
		b.Run("kernel="+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
