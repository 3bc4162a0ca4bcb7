package patch

// The adaptive near-singular quadrature of the wall solver evaluates two
// small grids per rectangle, millions of times per plan build: the 3×3
// samples that decide whether to refine, and the 6×6 quadrature frame of a
// rectangle it integrates. Both take their grid lines tabulated (a line is
// one parameter value of one axis): the rows of a line depend on its
// parameter only, so a caller that meets the same lines again — every
// rectangle sharing a dyadic interval on either axis — tabulates them once.
// Both run AVX2 kernels (frame_amd64.s) where the CPU has them, each the
// portable tensorFields loop to the bit.

// frameNodes is the per-dimension node count of the grids the frame kernel
// takes: the adaptive quadrature's 6×6 rule.
const frameNodes = 6

// Lines are grid lines tabulated by TabulateLines: their Lagrange rows and
// how many lines there are. TensorEval takes Lines, not parameters, so a
// caller cannot hand it untabulated parameter values.
type Lines struct {
	rows []float64
	n    int
}

// FrameLines are grid lines tabulated by TabulateFrameLines, value and
// derivative rows, as TensorFrame takes them.
type FrameLines struct {
	rows []float64
	n    int
}

// TabulateLines writes the Lagrange rows of order q's basis at the
// parameters ts into tab ((q+1)·len(ts) values) in the kernels' lane layout:
// tab[a·len(ts)+i] is L_a(ts[i]), node a's coefficients of every line
// contiguous. A parameter on a basis node gets the exact unit row. The
// returned Lines read tab.
func TabulateLines(q int, ts, tab []float64) Lines {
	b := getBasis(q)
	nl := len(ts)
	var buf [stackNodes]float64
	for i, t := range ts {
		for a, c := range b.coeffs(&buf, t) {
			tab[a*nl+i] = c
		}
	}
	return Lines{rows: tab[:(q+1)*nl], n: nl}
}

// TabulateFrameLines is TabulateLines followed by a second table of the
// derivative rows (2·(q+1)·len(ts) values): tab[(q+1+a)·len(ts)+i] is
// L_a'(ts[i]) = Σ_k L_k(ts[i])·D[k][a], D the spectral differentiation
// matrix, summed in k order with every product rounded on its own.
func TabulateFrameLines(q int, ts, tab []float64) FrameLines {
	TabulateLines(q, ts, tab)
	b := getBasis(q)
	n, nl := q+1, len(ts)
	c, d := tab[:n*nl], tab[n*nl:2*n*nl]
	for a := 0; a < n; a++ {
		for i := 0; i < nl; i++ {
			var s float64
			for k := 0; k < n; k++ {
				s += float64(c[k*nl+i] * b.diffF[k*n+a])
			}
			d[a*nl+i] = s
		}
	}
	return FrameLines{rows: tab[:2*n*nl], n: nl}
}

// TensorFrame evaluates the quadrature frame of the tensor rule
// (u lines, wu) × (v lines, wv) scaled by scale: six planes of
// len(wu)·len(wv) values in q, each row-major (u slowest) — the positions
// x, y, z, then the weighted area vectors (∂u × ∂v)·((wu[i]·wv[j])·scale)
// x, y, z. lu and lv hold one line per weight. The adaptive near-singular
// quadrature calls it once per integrated rectangle; on 6×6 grids it runs
// the AVX2 kernel where the CPU has one, to the bit of the portable loop.
func (p *Patch) TensorFrame(lu, lv FrameLines, wu, wv []float64, scale float64, q []float64) {
	n := p.Q + 1
	if lu.n != len(wu) || lv.n != len(wv) {
		panic("patch: TensorFrame's lines and weights differ in number")
	}
	if useAVX2 && len(wu) == frameNodes && len(wv) == frameNodes && n <= stackNodes {
		p.tensorFrameKernel(lu, lv, wu, wv, scale, q)
		return
	}
	p.tensorFrameGo(lu, lv, wu, wv, scale, q)
}

// tensorFrameKernel runs the AVX2 frame kernel with two padded value rows of
// stack scratch.
func (p *Patch) tensorFrameKernel(lu, lv FrameLines, wu, wv []float64, scale float64, q []float64) {
	n := p.Q + 1
	var t [2 * ((3*stackNodes + 3) &^ 3)]float64
	tensorFrameAVX2(p.Val, lu.rows[:2*frameNodes*n], lv.rows[:2*frameNodes*n], wu, wv, t[:], q, n, scale)
}

// tensorFrameGo is the portable loop and the frame kernel's reference:
// tensorFields, then the weighted cross products, each product rounded on
// its own.
func (p *Patch) tensorFrameGo(lu, lv FrameLines, wu, wv []float64, scale float64, q []float64) {
	nu, nv := len(wu), len(wv)
	m := nu * nv
	var posBuf, duBuf, dvBuf [frameNodes * frameNodes][3]float64
	pos, du, dv := posBuf[:], duBuf[:], dvBuf[:]
	if m > len(posBuf) {
		pos, du, dv = make([][3]float64, m), make([][3]float64, m), make([][3]float64, m)
	}
	pos, du, dv = pos[:m], du[:m], dv[:m]
	p.tensorFields(lu.rows, lv.rows, nu, nv, pos, du, dv)
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

// TensorEval evaluates positions on the tensor grid of the u lines lu and
// the v lines lv, writing row-major (u slowest) results into pos. The
// adaptive quadrature samples every rectangle it visits on a 3×3 grid;
// those run the AVX2 kernel where the CPU has one, to the bit of the
// portable loop.
func (p *Patch) TensorEval(lu, lv Lines, pos [][3]float64) {
	n := p.Q + 1
	nu, nv := lu.n, lv.n
	if useAVX2 && nu == sampleNodes && nv == sampleNodes && n <= stackNodes {
		var t [sampleNodes * 4 * ((3*stackNodes + 4) / 4)]float64
		tensorEval3AVX2(p.Val, lu.rows, lv.rows, t[:], n, pos[:sampleNodes*sampleNodes])
		return
	}
	p.tensorFields(lu.rows, lv.rows, nu, nv, pos, nil, nil)
}

// TensorDerivs evaluates position and first parametric derivatives on the
// tensor grid us × vs, writing row-major (u slowest) results into pos, du
// and dv (each len(us)·len(vs)): the parameters' TabulateFrameLines tables,
// on the stack while they fit, through tensorFields. It allocates nothing
// up to stackNodes nodes and lines per dimension.
func (p *Patch) TensorDerivs(us, vs []float64, pos, du, dv [][3]float64) {
	n := p.Q + 1
	var luBuf, lvBuf [2 * stackNodes * stackNodes]float64
	lu, lv := luBuf[:], lvBuf[:]
	if k := 2 * n * len(us); k > len(luBuf) {
		lu = make([]float64, k)
	}
	if k := 2 * n * len(vs); k > len(lvBuf) {
		lv = make([]float64, k)
	}
	lu, lv = lu[:2*n*len(us)], lv[:2*n*len(vs)]
	p.tensorFields(TabulateFrameLines(p.Q, us, lu).rows, TabulateFrameLines(p.Q, vs, lv).rows, len(us), len(vs), pos, du, dv)
}
