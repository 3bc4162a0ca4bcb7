package fft

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// transform is the unplanned in-place complex DFT that Plan.Forward
// replaced (sign −1 forward, +1 inverse, unnormalized): radix-2 with its
// twiddles recomputed per stage for power-of-two lengths, the direct sum
// otherwise. It is the bit reference of the planned transform.
func transform(re, im []float64, sign float64) {
	n := len(re)
	if n <= 1 {
		return
	}
	if n&(n-1) != 0 {
		outRe := make([]float64, n)
		outIm := make([]float64, n)
		for k := 0; k < n; k++ {
			var sr, si float64
			for j := 0; j < n; j++ {
				ang := sign * 2 * math.Pi * float64(j) * float64(k) / float64(n)
				c, s := math.Cos(ang), math.Sin(ang)
				sr += float64(re[j]*c) - float64(im[j]*s)
				si += float64(re[j]*s) + float64(im[j]*c)
			}
			outRe[k], outIm[k] = sr, si
		}
		copy(re, outRe)
		copy(im, outIm)
		return
	}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wRe, wIm := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += length {
			curRe, curIm := 1.0, 0.0
			half := length / 2
			for k := 0; k < half; k++ {
				i0, i1 := start+k, start+k+half
				tRe := float64(re[i1]*curRe) - float64(im[i1]*curIm)
				tIm := float64(re[i1]*curIm) + float64(im[i1]*curRe)
				re[i1] = re[i0] - tRe
				im[i1] = im[i0] - tIm
				re[i0] += tRe
				im[i0] += tIm
				curRe, curIm = float64(curRe*wRe)-float64(curIm*wIm), float64(curRe*wIm)+float64(curIm*wRe)
			}
		}
	}
}

// forwardHalf runs a fresh plan of length len(x) and returns the
// frequencies 0…n/2.
func forwardHalf(x []float64) (re, im []float64) {
	n := len(x)
	re, im = make([]float64, n), make([]float64, n)
	NewPlan(n).Forward(x, re, im)
	return re[:n/2+1], im[:n/2+1]
}

// realInverse rebuilds the full spectrum from the frequencies 0…n/2 by
// Hermitian symmetry and returns its normalized inverse transform.
func realInverse(re, im []float64, n int) []float64 {
	y, yi := make([]float64, n), make([]float64, n)
	for k := 0; k < n; k++ {
		if k < len(re) {
			y[k], yi[k] = re[k], im[k]
		} else {
			y[k], yi[k] = re[n-k], -im[n-k]
		}
	}
	transform(y, yi, +1)
	for i := range y {
		y[i] /= float64(n)
	}
	return y
}

func TestForwardInverseRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 3, 6, 12, 10} {
		rng := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		re, im := forwardHalf(x)
		y := realInverse(re, im, n)
		for i := range x {
			if math.Abs(y[i]-x[i]) > 1e-10 {
				t.Fatalf("n=%d: roundtrip mismatch at %d", n, i)
			}
		}
	}
}

// The planned transform has the bits of the unplanned one on both paths,
// radix-2 and direct, on noise with ±0 entries; and it is the DFT.
func TestForwardMatchesDirectDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 32, 64} {
		x := make([]float64, n)
		for i := range x {
			switch rng.Intn(8) {
			case 0:
				x[i] = math.Copysign(0, -1)
			case 1:
				x[i] = 0
			default:
				x[i] = rng.NormFloat64()
			}
		}
		re, im := forwardHalf(x)
		wantRe, wantIm := append([]float64(nil), x...), make([]float64, n)
		transform(wantRe, wantIm, -1)
		for k := range re {
			if math.Float64bits(re[k]) != math.Float64bits(wantRe[k]) || math.Float64bits(im[k]) != math.Float64bits(wantIm[k]) {
				t.Fatalf("n=%d k=%d: planned (%v,%v), unplanned (%v,%v)", n, k, re[k], im[k], wantRe[k], wantIm[k])
			}
			var dr, di float64
			for j, v := range x {
				ang := -2 * math.Pi * float64(j*k) / float64(n)
				dr += v * math.Cos(ang)
				di += v * math.Sin(ang)
			}
			if math.Abs(re[k]-dr) > 1e-10 || math.Abs(im[k]-di) > 1e-10 {
				t.Fatalf("n=%d k=%d: (%v,%v), DFT (%v,%v)", n, k, re[k], im[k], dr, di)
			}
		}
	}
}

func TestSingleModeFrequency(t *testing.T) {
	// x[j] = cos(2π m j / n) should give spikes at +-m of magnitude n/2.
	n, m := 32, 5
	x := make([]float64, n)
	for j := range x {
		x[j] = math.Cos(2 * math.Pi * float64(m) * float64(j) / float64(n))
	}
	re, im := forwardHalf(x)
	for k := 0; k < len(re); k++ {
		want := 0.0
		if k == m {
			want = float64(n) / 2
		}
		if math.Abs(re[k]-want) > 1e-9 || math.Abs(im[k]) > 1e-9 {
			t.Fatalf("k=%d: got (%v,%v), want (%v,0)", k, re[k], im[k], want)
		}
	}
}

// One plan serves repeated calls whose work space holds the previous
// call's values: the result depends on x alone.
func TestRealRoundTrip(t *testing.T) {
	for _, n := range []int{2, 4, 8, 32, 6} {
		rng := rand.New(rand.NewSource(int64(n) + 100))
		p := NewPlan(n)
		re, im := make([]float64, n), make([]float64, n)
		for trial := 0; trial < 3; trial++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			p.Forward(x, re, im)
			y := realInverse(re[:n/2+1], im[:n/2+1], n)
			for i := range x {
				if math.Abs(x[i]-y[i]) > 1e-10 {
					t.Fatalf("n=%d: real roundtrip mismatch at %d: %v vs %v", n, i, x[i], y[i])
				}
			}
		}
	}
}

func TestParseval(t *testing.T) {
	for _, n := range []int{64, 12} {
		rng := rand.New(rand.NewSource(11))
		x := make([]float64, n)
		var energyTime float64
		for i := range x {
			x[i] = rng.NormFloat64()
			energyTime += x[i] * x[i]
		}
		re, im := forwardHalf(x)
		// Frequencies 1…n/2−1 stand for themselves and their conjugates.
		energyFreq := re[0]*re[0] + re[n/2]*re[n/2]
		for k := 1; k < n/2; k++ {
			energyFreq += 2 * (re[k]*re[k] + im[k]*im[k])
		}
		if math.Abs(energyFreq/float64(n)-energyTime) > 1e-8 {
			t.Fatalf("n=%d: Parseval violated: %v vs %v", n, energyFreq/float64(n), energyTime)
		}
	}
}

// Property: linearity of the transform.
func TestQuickLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		alpha := rng.NormFloat64()
		// FFT(a + alpha b) == FFT(a) + alpha FFT(b)
		sum := make([]float64, n)
		for i := range sum {
			sum[i] = a[i] + alpha*b[i]
		}
		sumRe, sumIm := forwardHalf(sum)
		aRe, aIm := forwardHalf(a)
		bRe, bIm := forwardHalf(b)
		for i := range sumRe {
			if math.Abs(sumRe[i]-(aRe[i]+alpha*bRe[i])) > 1e-9 {
				return false
			}
			if math.Abs(sumIm[i]-(aIm[i]+alpha*bIm[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
