package patch

import "rbcflow/internal/quadrature"

// The adaptive near-singular quadrature of the wall solver evaluates two
// small grids per rectangle, millions of times per plan build: the 3×3
// samples that decide whether to refine, and the 6×6 quadrature frame of a
// rectangle it integrates. Both run AVX2 kernels (frame_amd64.s) where the
// CPU has them, each the portable tensorFields loop to the bit.

// frameNodes is the per-dimension node count of the grids the frame kernel
// takes: the adaptive quadrature's 6×6 rule.
const frameNodes = 6

// TensorFrame evaluates the quadrature frame of the tensor rule
// (us, wu) × (vs, wv) scaled by scale: six planes of len(us)·len(vs) values
// in q, each row-major (u slowest) — the positions x, y, z, then the
// weighted area vectors (∂u × ∂v)·((wu[i]·wv[j])·scale) x, y, z. The
// adaptive near-singular quadrature calls it once per integrated rectangle;
// on 6×6 grids it runs the AVX2 kernel where the CPU has one, to the bit of
// the portable loop.
func (p *Patch) TensorFrame(us, vs, wu, wv []float64, scale float64, q []float64) {
	n := p.Q + 1
	if useAVX2 && len(us) == frameNodes && len(vs) == frameNodes && n <= stackNodes {
		p.tensorFrameKernel(us, vs, wu, wv, scale, q)
		return
	}
	p.tensorFrameGo(us, vs, wu, wv, scale, q)
}

// tensorFrameKernel tabulates the 6×6 grid's Lagrange rows with the grid
// lines in lanes (node a's six u lines, then its six v lines) and runs the
// AVX2 kernel.
func (p *Patch) tensorFrameKernel(us, vs, wu, wv []float64, scale float64, q []float64) {
	b := getBasis(p.Q)
	n := p.Q + 1
	var tab [4 * stackNodes * frameNodes]float64
	var t [2 * ((3*stackNodes + 3) &^ 3)]float64
	var row [stackNodes]float64
	for s, ts := range [2][]float64{us, vs} {
		lines := tab[s*frameNodes*n : (s+1)*frameNodes*n]
		for i, x := range ts {
			quadrature.LagrangeCoeffsInto(row[:n], b.nodes, b.bw, x)
			for a, c := range row[:n] {
				lines[a*frameNodes+i] = c
			}
		}
	}
	tensorFrameAVX2(p.Val, b.diffF, tab[:4*frameNodes*n], wu, wv, t[:], q, n, scale)
}

// tensorFrameGo is the portable loop and the frame kernel's reference:
// tensorFields, then the weighted cross products, each product rounded on
// its own.
func (p *Patch) tensorFrameGo(us, vs, wu, wv []float64, scale float64, q []float64) {
	nu, nv := len(us), len(vs)
	m := nu * nv
	var posBuf, duBuf, dvBuf [frameNodes * frameNodes][3]float64
	pos, du, dv := posBuf[:], duBuf[:], dvBuf[:]
	if m > len(posBuf) {
		pos, du, dv = make([][3]float64, m), make([][3]float64, m), make([][3]float64, m)
	}
	pos, du, dv = pos[:m], du[:m], dv[:m]
	p.tensorFields(us, vs, pos, du, dv)
	for i := 0; i < nu; i++ {
		for j := 0; j < nv; j++ {
			k := i*nv + j
			a, b := du[k], dv[k]
			w := wu[i] * wv[j] * scale
			q[k], q[m+k], q[2*m+k] = pos[k][0], pos[k][1], pos[k][2]
			q[3*m+k] = (float64(a[1]*b[2]) - float64(a[2]*b[1])) * w
			q[4*m+k] = (float64(a[2]*b[0]) - float64(a[0]*b[2])) * w
			q[5*m+k] = (float64(a[0]*b[1]) - float64(a[1]*b[0])) * w
		}
	}
}

// sampleNodes is the per-dimension node count of the grids the sample
// kernel takes.
const sampleNodes = 3

// tensorEvalKernel tabulates the 3×3 grid's Lagrange rows, per basis node
// its three u lines then its three v lines, and runs the AVX2 kernel.
func (p *Patch) tensorEvalKernel(us, vs []float64, pos [][3]float64) {
	b := getBasis(p.Q)
	n := p.Q + 1
	var tab [2 * sampleNodes * stackNodes]float64
	var t [sampleNodes * 4 * ((3*stackNodes + 4) / 4)]float64
	var row [stackNodes]float64
	for s, ts := range [2][]float64{us, vs} {
		for i, x := range ts {
			quadrature.LagrangeCoeffsInto(row[:n], b.nodes, b.bw, x)
			for a, c := range row[:n] {
				tab[a*2*sampleNodes+s*sampleNodes+i] = c
			}
		}
	}
	tensorEval3AVX2(p.Val, tab[:2*sampleNodes*n], t[:], n, pos[:sampleNodes*sampleNodes])
}
