// Package kernels implements the Green's functions of the Stokes equations
// used throughout the paper: the single-layer Stokeslet kernel S (Eq. 2.4),
// the double-layer kernel D (Eq. 2.5), the rank-completing null-space
// operator N, and a Laplace kernel used for quadrature verification.
//
// Sign conventions are pinned by the paper's boundary integral equation
// (1/2 I + D + N)ϕ = g for the interior Dirichlet problem with the normal
// pointing out of the fluid domain: with r = x − y,
//
//	S(x,y) f = 1/(8πµ) ( f/|r| + r (r·f)/|r|³ )
//	D(x,y;n) ϕ = −3/(4π) r (r·ϕ)(r·n)/|r|⁵
//
// so that ∫_Γ D(x,y) ϕ₀ dS_y = ϕ₀ for x inside, ϕ₀/2 on Γ (principal
// value), and 0 outside — which also provides an inside/outside indicator.
package kernels

import "math"

// Kernel is the position-only tensor form consumed by the kernel-independent
// FMM: dst += K(r) q where r = target − source and q is the source strength.
type Kernel interface {
	// SrcDim is the number of components of a source strength.
	SrcDim() int
	// OutDim is the number of components of a target value.
	OutDim() int
	// Eval accumulates K(r) q into dst. Must treat r = 0 as zero
	// contribution (self interactions are handled by singular quadrature).
	Eval(dst []float64, rx, ry, rz float64, q []float64)
	// EvalBlock accumulates Σ_s K(trg_t − srcPos_s) srcQ_s into
	// dst[t·OutDim : (t+1)·OutDim] for every target t: the same arithmetic
	// as Eval over the sources in order, bit for bit, with the target's
	// accumulators in registers and no per-pair dispatch. It is the entry
	// point of every "for each target, sum over sources" loop, direct or in
	// the tree passes; Eval stays as the reference.
	EvalBlock(dst []float64, trg, srcPos [][3]float64, srcQ []float64)
	// Degree is the homogeneity exponent: K(αr) = α^Degree K(r).
	Degree() float64
}

const (
	fourPi  = 4 * math.Pi
	eightPi = 8 * math.Pi
)

// Stokeslet is the single-layer Stokes kernel with viscosity Mu.
// Source strength: 3-vector force density (including quadrature weight);
// output: 3-vector velocity.
type Stokeslet struct{ Mu float64 }

func (Stokeslet) SrcDim() int     { return 3 }
func (Stokeslet) OutDim() int     { return 3 }
func (Stokeslet) Degree() float64 { return -1 }

// Eval rounds every product on its own (float64(·)), as the Go block loop
// does, so no build fuses a multiply-add and the AVX2 kernel, which has
// none, is the same bits.
func (k Stokeslet) Eval(dst []float64, rx, ry, rz float64, q []float64) {
	r2 := float64(rx*rx) + float64(ry*ry) + float64(rz*rz)
	if r2 == 0 {
		return
	}
	inv := 1 / math.Sqrt(r2)
	inv3 := inv / r2
	c := 1 / (eightPi * k.Mu)
	rdotf := float64(rx*q[0]) + float64(ry*q[1]) + float64(rz*q[2])
	dst[0] += float64(c * (float64(q[0]*inv) + float64(float64(rx*rdotf)*inv3)))
	dst[1] += float64(c * (float64(q[1]*inv) + float64(float64(ry*rdotf)*inv3)))
	dst[2] += float64(c * (float64(q[2]*inv) + float64(float64(rz*rdotf)*inv3)))
}

// EvalBlock runs the AVX2 kernel where the CPU has one (stokeslet_amd64.s)
// and the portable loop elsewhere; both are Eval's arithmetic, bit for bit.
func (k Stokeslet) EvalBlock(dst []float64, trg, srcPos [][3]float64, srcQ []float64) {
	c := 1 / (eightPi * k.Mu)
	srcQ = srcQ[:3*len(srcPos)]
	if useAVX2 {
		stokesletBlockLanes(dst, trg, srcPos, srcQ, c)
		return
	}
	stokesletBlockGo(dst, trg, srcPos, srcQ, c)
}

// stokesletBlockGo is the portable Stokeslet block loop and the reference
// of the AVX2 kernel: Eval over the sources in order, the target's sums in
// registers.
func stokesletBlockGo(dst []float64, trg, srcPos [][3]float64, srcQ []float64, c float64) {
	for t, x := range trg {
		d := dst[3*t : 3*t+3 : 3*t+3]
		a0, a1, a2 := d[0], d[1], d[2]
		for s, y := range srcPos {
			rx, ry, rz := x[0]-y[0], x[1]-y[1], x[2]-y[2]
			r2 := float64(rx*rx) + float64(ry*ry) + float64(rz*rz)
			if r2 == 0 {
				continue
			}
			q := srcQ[3*s : 3*s+3 : 3*s+3]
			inv := 1 / math.Sqrt(r2)
			inv3 := inv / r2
			rdotf := float64(rx*q[0]) + float64(ry*q[1]) + float64(rz*q[2])
			a0 += float64(c * (float64(q[0]*inv) + float64(float64(rx*rdotf)*inv3)))
			a1 += float64(c * (float64(q[1]*inv) + float64(float64(ry*rdotf)*inv3)))
			a2 += float64(c * (float64(q[2]*inv) + float64(float64(rz*rdotf)*inv3)))
		}
		d[0], d[1], d[2] = a0, a1, a2
	}
}

// stokesletChunk is the target count of one AVX2 kernel call: 16 lane
// groups of four, whose positions and sums fit a 3 KB stack buffer.
const stokesletChunk = 64

// stokesletBlockLanes feeds stokesletBlockGo's work to the AVX2 kernel, one
// target per lane: each chunk's targets are transposed to planes — lane
// group g holds x, y, z, then the three sums, four lanes each, at
// 24g — and a short last group is padded with copies of its last target,
// whose results are dropped.
func stokesletBlockLanes(dst []float64, trg, srcPos [][3]float64, srcQ []float64, c float64) {
	if len(srcPos) == 0 {
		return
	}
	dst = dst[:3*len(trg)]
	var p [stokesletChunk / 4 * 24]float64
	for lo := 0; lo < len(trg); lo += stokesletChunk {
		hi := min(lo+stokesletChunk, len(trg))
		groups := (hi - lo + 3) / 4
		for g := 0; g < groups; g++ {
			pg := p[24*g : 24*g+24 : 24*g+24]
			for l := 0; l < 4; l++ {
				t := min(lo+4*g+l, hi-1)
				x, d := &trg[t], dst[3*t:3*t+3:3*t+3]
				pg[l], pg[4+l], pg[8+l] = x[0], x[1], x[2]
				pg[12+l], pg[16+l], pg[20+l] = d[0], d[1], d[2]
			}
		}
		stokesletGroupsAVX2(p[:24*groups], srcPos, srcQ, c)
		for t := lo; t < hi; t++ {
			pg, l := p[24*((t-lo)/4):], (t-lo)%4
			d := dst[3*t : 3*t+3 : 3*t+3]
			d[0], d[1], d[2] = pg[12+l], pg[16+l], pg[20+l]
		}
	}
}

// StokesDoubleTensor is the double-layer Stokes kernel in tensor form for
// the FMM: the 9-component source strength is q[3j+k] = ϕ_j n_k w (density
// times normal times quadrature weight), making the kernel position-only:
//
//	out_i = Σ_{jk} −3/(4π) r_i r_j r_k / |r|⁵ · q[3j+k].
type StokesDoubleTensor struct{}

func (StokesDoubleTensor) SrcDim() int     { return 9 }
func (StokesDoubleTensor) OutDim() int     { return 3 }
func (StokesDoubleTensor) Degree() float64 { return -2 }

// Eval and EvalBlock round every product on its own (float64(·)), as the
// Stokeslet does, so no build fuses a multiply-add and every architecture
// computes the amd64 bits; the Laplace kernels and the direct layer
// velocities below do the same.
func (StokesDoubleTensor) Eval(dst []float64, rx, ry, rz float64, q []float64) {
	r2 := float64(rx*rx) + float64(ry*ry) + float64(rz*rz)
	if r2 == 0 {
		return
	}
	inv := 1 / math.Sqrt(r2)
	inv5 := inv * inv * inv * inv * inv
	c := -3 / fourPi * inv5
	// s_j = Σ_k r_k q[3j+k]
	s0 := float64(rx*q[0]) + float64(ry*q[1]) + float64(rz*q[2])
	s1 := float64(rx*q[3]) + float64(ry*q[4]) + float64(rz*q[5])
	s2 := float64(rx*q[6]) + float64(ry*q[7]) + float64(rz*q[8])
	t := c * (float64(rx*s0) + float64(ry*s1) + float64(rz*s2))
	dst[0] += float64(t * rx)
	dst[1] += float64(t * ry)
	dst[2] += float64(t * rz)
}

func (StokesDoubleTensor) EvalBlock(dst []float64, trg, srcPos [][3]float64, srcQ []float64) {
	srcQ = srcQ[:9*len(srcPos)]
	for t, x := range trg {
		d := dst[3*t : 3*t+3 : 3*t+3]
		a0, a1, a2 := d[0], d[1], d[2]
		for s, y := range srcPos {
			rx, ry, rz := x[0]-y[0], x[1]-y[1], x[2]-y[2]
			r2 := float64(rx*rx) + float64(ry*ry) + float64(rz*rz)
			if r2 == 0 {
				continue
			}
			q := srcQ[9*s : 9*s+9 : 9*s+9]
			inv := 1 / math.Sqrt(r2)
			inv5 := inv * inv * inv * inv * inv
			c := -3 / fourPi * inv5
			s0 := float64(rx*q[0]) + float64(ry*q[1]) + float64(rz*q[2])
			s1 := float64(rx*q[3]) + float64(ry*q[4]) + float64(rz*q[5])
			s2 := float64(rx*q[6]) + float64(ry*q[7]) + float64(rz*q[8])
			w := c * (float64(rx*s0) + float64(ry*s1) + float64(rz*s2))
			a0 += float64(w * rx)
			a1 += float64(w * ry)
			a2 += float64(w * rz)
		}
		d[0], d[1], d[2] = a0, a1, a2
	}
}

// LaplaceSingle is the single-layer Laplace kernel 1/(4π|r|), used to verify
// singular quadrature against the analytic sphere eigenvalues.
type LaplaceSingle struct{}

func (LaplaceSingle) SrcDim() int     { return 1 }
func (LaplaceSingle) OutDim() int     { return 1 }
func (LaplaceSingle) Degree() float64 { return -1 }

func (LaplaceSingle) Eval(dst []float64, rx, ry, rz float64, q []float64) {
	r2 := float64(rx*rx) + float64(ry*ry) + float64(rz*rz)
	if r2 == 0 {
		return
	}
	dst[0] += q[0] / (fourPi * math.Sqrt(r2))
}

func (k LaplaceSingle) EvalBlock(dst []float64, trg, srcPos [][3]float64, srcQ []float64) {
	evalPairs(k, dst, trg, srcPos, srcQ)
}

// evalPairs is EvalBlock by per-pair Eval, for the verification kernels that
// run on no measured path.
func evalPairs(k Kernel, dst []float64, trg, srcPos [][3]float64, srcQ []float64) {
	ds, do := k.SrcDim(), k.OutDim()
	for t, x := range trg {
		for s, y := range srcPos {
			k.Eval(dst[t*do:(t+1)*do], x[0]-y[0], x[1]-y[1], x[2]-y[2], srcQ[s*ds:(s+1)*ds])
		}
	}
}

// DoubleLayerVel accumulates the double-layer velocity D(x,y;n)ϕ·w into
// dst (the direct, non-tensor form used by quadrature code).
func DoubleLayerVel(dst []float64, x, y, n [3]float64, phi []float64, w float64) {
	rx, ry, rz := x[0]-y[0], x[1]-y[1], x[2]-y[2]
	r2 := float64(rx*rx) + float64(ry*ry) + float64(rz*rz)
	if r2 == 0 {
		return
	}
	inv := 1 / math.Sqrt(r2)
	inv5 := inv * inv * inv * inv * inv
	rdotPhi := float64(rx*phi[0]) + float64(ry*phi[1]) + float64(rz*phi[2])
	rdotN := float64(rx*n[0]) + float64(ry*n[1]) + float64(rz*n[2])
	t := -3 / fourPi * inv5 * rdotPhi * rdotN * w
	dst[0] += float64(t * rx)
	dst[1] += float64(t * ry)
	dst[2] += float64(t * rz)
}

// SingleLayerVel accumulates the single-layer velocity S(x,y)f·w into dst.
func SingleLayerVel(dst []float64, mu float64, x, y [3]float64, f []float64, w float64) {
	rx, ry, rz := x[0]-y[0], x[1]-y[1], x[2]-y[2]
	r2 := float64(rx*rx) + float64(ry*ry) + float64(rz*rz)
	if r2 == 0 {
		return
	}
	inv := 1 / math.Sqrt(r2)
	inv3 := inv / r2
	c := w / (eightPi * mu)
	rdotf := float64(rx*f[0]) + float64(ry*f[1]) + float64(rz*f[2])
	dst[0] += float64(c * (float64(f[0]*inv) + float64(float64(rx*rdotf)*inv3)))
	dst[1] += float64(c * (float64(f[1]*inv) + float64(float64(ry*rdotf)*inv3)))
	dst[2] += float64(c * (float64(f[2]*inv) + float64(float64(rz*rdotf)*inv3)))
}

// TensorStrength assembles the tensor source strength of StokesDoubleTensor
// for one quadrature node: q[3j+k] = phi[j]*n[k]*w. The tensor is rank one, so
// for a unit normal Σ_k q[3j+k] n[k] = phi[j]*w gives the vector strength back.
func TensorStrength(q []float64, phi []float64, n [3]float64, w float64) {
	for j := 0; j < 3; j++ {
		for k := 0; k < 3; k++ {
			q[3*j+k] = phi[j] * n[k] * w
		}
	}
}

// LaplaceDouble is the Laplace double-layer kernel used as an inside/outside
// indicator: with source strength q = n·w (3 components) and r = x − y,
// out = −(r·q)/(4π|r|³). Integrated over a closed surface with outward
// normals it gives +1 for x inside, +1/2 on the surface, 0 outside.
type LaplaceDouble struct{}

func (LaplaceDouble) SrcDim() int     { return 3 }
func (LaplaceDouble) OutDim() int     { return 1 }
func (LaplaceDouble) Degree() float64 { return -2 }

func (LaplaceDouble) Eval(dst []float64, rx, ry, rz float64, q []float64) {
	r2 := float64(rx*rx) + float64(ry*ry) + float64(rz*rz)
	if r2 == 0 {
		return
	}
	r := math.Sqrt(r2)
	dst[0] += -(float64(rx*q[0]) + float64(ry*q[1]) + float64(rz*q[2])) / (fourPi * r2 * r)
}

func (k LaplaceDouble) EvalBlock(dst []float64, trg, srcPos [][3]float64, srcQ []float64) {
	evalPairs(k, dst, trg, srcPos, srcQ)
}
