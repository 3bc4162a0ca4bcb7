package rbc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rbcflow/internal/cpuid"
)

// digest hashes the bits of a sequence of values.
type digest struct{ hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) add(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.Write(b[:])
	}
}

func (d digest) String() string { return hex.EncodeToString(d.Sum(nil)) }

// selfOpDigests returns the digests of the operator entries of
// shearedBiconcave(p) read in (a, t, b, k) order, of the operator applied
// to its force density, and of the cell's positions after three shear steps.
func selfOpDigests(p int) (entries, apply, steps string) {
	c, f := shearedBiconcave(p)
	sq := NewSingularQuad(p)
	op := c.NewSelfOperator(sq, c.ComputeGeometry(), 1.3)
	n := op.n
	de := newDigest()
	for a := 0; a < 3; a++ {
		for t := 0; t < n; t++ {
			for b := 0; b < 3; b++ {
				for k := 0; k < n; k++ {
					de.add(op.at(a, t, b, k))
				}
			}
		}
	}
	u := op.Apply(f)
	op.Release()
	da := newDigest()
	for _, ua := range u {
		da.add(ua...)
	}
	for i := 0; i < 3; i++ {
		shearStep(c, sq)
	}
	ds := newDigest()
	for _, xa := range c.X {
		ds.add(xa...)
	}
	return de.String(), da.String(), ds.String()
}

// at returns the operator entry coupling component b of node k to
// component a of target t.
func (op *SelfOperator) at(a, t, b, k int) float64 {
	n := op.n
	return op.s[(a*n+t-t%4)*3*n+(b*n+k)*4+t%4]
}

// kernelPaths lists the self-operator kernels this CPU can run.
func kernelPaths() []string {
	if cpuid.AVX2() {
		return []string{"go", "avx2"}
	}
	return []string{"go"}
}

// onPath selects the self-operator kernels for the rest of the test.
func onPath(tb testing.TB, path string) {
	old := useAVX2
	tb.Cleanup(func() { useAVX2 = old })
	useAVX2 = path == "avx2"
}

// TestSelfOperatorDigestsPinned pins the bits of the self-interaction on
// shearedBiconcave at orders 3, 4, 6 and 8: the operator's entries in
// (a, t, b, k) order (so the digest does not depend on the storage layout),
// the operator applied to the cell's force density, and the cell's
// positions after three shear steps. The digests were recorded with the
// row-major operator and its scalar Go loops, before any vector kernel or
// interleaved layout existed; both kernels must still produce them. They
// are amd64 digests: elsewhere the compiler may fuse the multiply-adds of
// math's Sin, Cos and Acos, which build the grid and the rotation operators.
func TestSelfOperatorDigestsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	want := map[int][3]string{
		3: {"5e3fe8e95de36a3adbe135144b87271844500e38360d2ed913db020cb9fd8f04", "c21242825f533dfbba8fab75200664b0638241b66a5b4b49b77a3f5d0378d15d", "ad18fd711efc3b0243198f05f27fb3c81b94c3c57a4a70884260a2c2589e4ba4"},
		4: {"e2ceac2d5b831f53f7984e70bfb092ccfb6110d2cb1f216d58bfeacd6f8ac1d8", "b35944cb0231d9bb57c8f3f6d79a7fa37eb4bec80120b0fd39096190b95d1fef", "33baf01c778a5c4434f631e7474b24a4e6214593f476c919cb987767a67789c4"},
		6: {"5830c627d62a6561df60947f5c6f1e88edc3f98adfd9bcec56443248ee36fe38", "28ab0930736582939b0649cd3f549683aba5e4a6575324cf68153bcd9340a488", "d5ca40367cdbbb22e8b99eaaa13082cdae3e8aa513148e095ffd5ded5016bc79"},
		8: {"015635aecbed7eba6d9ce98ed303d85f01529882651223611d29f0c1d286d0df", "6a4dea1032df3fd60e40873b4a22a32eac41df1727127eee09a77fd5f01761e7", "63ce010e89458059ed4bc2c0b4066fc1bee8cdd66e2b78a115854f81f22a2ab6"},
	}
	for _, path := range kernelPaths() {
		onPath(t, path)
		for _, p := range []int{3, 4, 6, 8} {
			e, a, s := selfOpDigests(p)
			for i, got := range [3]string{e, a, s} {
				if got != want[p][i] {
					t.Errorf("%s p=%d: %s digest %s, want %s", path, p, [3]string{"entries", "apply", "steps"}[i], got, want[p][i])
				}
			}
		}
	}
}

// signedNoise is a normal draw, or ±0 one time in five, so that sums start
// at and pass through both zeros.
func signedNoise(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	}
	return rng.NormFloat64()
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d: AVX2 %x, Go loop %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// The AVX2 rotation, row and apply kernels equal their Go loops bit for bit
// at orders 3–8: on the quadrature's own rotation operators and on noise
// with ±0 entries, with Stokeslet blocks that are zero (a node coinciding
// with its target) or −0; and the whole operator and its application on a
// cell whose first latitude row has collapsed onto one point.
func TestSelfOperatorKernelBitIdentical(t *testing.T) {
	if !cpuid.AVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	rng := rand.New(rand.NewSource(55))
	flat := func(v [][4]float64) []float64 {
		out := make([]float64, 0, 4*len(v))
		for _, x := range v {
			out = append(out, x[:]...)
		}
		return out
	}
	for p := 3; p <= 8; p++ {
		sq := NewSingularQuad(p)
		n := sq.Grid.NumPoints()
		for trial := 0; trial < 4; trial++ {
			R := sq.Rot[rng.Intn(len(sq.Rot))]
			if trial%2 == 1 {
				R = make([]float64, n*n)
				for i := range R {
					R[i] = signedNoise(rng)
				}
			}
			src := make([][4]float64, n)
			for k := range src {
				for d := range src[k] {
					src[k][d] = signedNoise(rng)
				}
			}
			want, got := make([][4]float64, n), make([][4]float64, n)
			rotateGo(want, R, src)
			rotateAVX2(got, R, src)
			sameBits(t, fmt.Sprintf("p=%d rotation", p), flat(got), flat(want))

			m := make([][6]float64, n)
			for r := range m {
				switch rng.Intn(4) {
				case 0: // a node coinciding with its target
				case 1:
					for e := range m[r] {
						m[r][e] = math.Copysign(0, -1)
					}
				default:
					for e := range m[r] {
						m[r][e] = signedNoise(rng)
					}
				}
			}
			rowsWant, rowsGot := make([]float64, 6*n), make([]float64, 6*n)
			for i := range rowsGot {
				rowsGot[i] = rng.NormFloat64() // overwritten, not added to
			}
			rowsGo(rowsWant, R, m)
			rowsAVX2(rowsGot, R, m)
			sameBits(t, fmt.Sprintf("p=%d rows", p), rowsGot, rowsWant)

			op := &SelfOperator{sq: sq, n: n, s: make([]float64, 9*n*n)}
			for i := range op.s {
				op.s[i] = signedNoise(rng)
			}
			var f, uWant, uGot [3][]float64
			for a := range f {
				f[a], uWant[a], uGot[a] = make([]float64, n), make([]float64, n), make([]float64, n)
				for k := range f[a] {
					f[a][k] = signedNoise(rng)
				}
			}
			op.applyGo(uWant, f)
			applyAVX2(uGot[0], uGot[1], uGot[2], op.s, f[0], f[1], f[2])
			for a := range uWant {
				sameBits(t, fmt.Sprintf("p=%d apply component %d", p, a), uGot[a], uWant[a])
			}
		}

		// The whole assembly and application, on a cell with coincident nodes.
		c, f := shearedBiconcave(p)
		for j := 1; j < c.Grid.Nlon; j++ {
			for d := 0; d < 3; d++ {
				c.X[d][j] = c.X[d][0]
			}
		}
		geo := c.ComputeGeometry()
		run := func(path string) ([]float64, [3][]float64) {
			onPath(t, path)
			op := c.NewSelfOperator(sq, geo, 0.7)
			defer op.Release()
			return append([]float64(nil), op.s...), op.Apply(f)
		}
		sWant, uWant := run("go")
		sGot, uGot := run("avx2")
		sameBits(t, fmt.Sprintf("p=%d operator", p), sGot, sWant)
		for a := range uWant {
			sameBits(t, fmt.Sprintf("p=%d operator apply component %d", p, a), uGot[a], uWant[a])
		}
	}
}

// BenchmarkSelfOperator times the assembly on each kernel at orders 4 and 8;
// -cpu 1 gives the single-core figure.
func BenchmarkSelfOperator(b *testing.B) {
	for _, path := range kernelPaths() {
		for _, p := range []int{4, 8} {
			b.Run(fmt.Sprintf("kernel=%s/p=%d", path, p), func(b *testing.B) {
				onPath(b, path)
				c, _ := shearedBiconcave(p)
				geo := c.ComputeGeometry()
				sq := NewSingularQuad(p)
				c.NewSelfOperator(sq, geo, 1).Release() // fill the pools
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.NewSelfOperator(sq, geo, 1).Release()
				}
			})
		}
	}
}

// applySink keeps the benchmarked applications live.
var applySink [3][]float64

// BenchmarkSelfOperatorApply times one application on each kernel at orders
// 4 and 8.
func BenchmarkSelfOperatorApply(b *testing.B) {
	for _, path := range kernelPaths() {
		for _, p := range []int{4, 8} {
			b.Run(fmt.Sprintf("kernel=%s/p=%d", path, p), func(b *testing.B) {
				onPath(b, path)
				c, f := shearedBiconcave(p)
				sq := NewSingularQuad(p)
				op := c.NewSelfOperator(sq, c.ComputeGeometry(), 1)
				defer op.Release()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					applySink = op.Apply(f)
				}
			})
		}
	}
}
