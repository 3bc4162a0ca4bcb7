package fft

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestForwardInverseRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 3, 6, 12, 10} {
		rng := rand.New(rand.NewSource(int64(n)))
		re := make([]float64, n)
		im := make([]float64, n)
		origRe := make([]float64, n)
		origIm := make([]float64, n)
		for i := 0; i < n; i++ {
			re[i] = rng.NormFloat64()
			im[i] = rng.NormFloat64()
			origRe[i], origIm[i] = re[i], im[i]
		}
		Forward(re, im)
		Inverse(re, im)
		for i := 0; i < n; i++ {
			if math.Abs(re[i]/float64(n)-origRe[i]) > 1e-10 ||
				math.Abs(im[i]/float64(n)-origIm[i]) > 1e-10 {
				t.Fatalf("n=%d: roundtrip mismatch at %d", n, i)
			}
		}
	}
}

func TestForwardMatchesDirectDFT(t *testing.T) {
	n := 16
	rng := rand.New(rand.NewSource(2))
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range re {
		re[i] = rng.NormFloat64()
		im[i] = rng.NormFloat64()
	}
	dre := make([]float64, n)
	dim := make([]float64, n)
	copy(dre, re)
	copy(dim, im)
	dft(dre, dim, -1)
	Forward(re, im)
	for i := 0; i < n; i++ {
		if math.Abs(re[i]-dre[i]) > 1e-10 || math.Abs(im[i]-dim[i]) > 1e-10 {
			t.Fatalf("radix2 disagrees with direct DFT at %d", i)
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
	re, im := RealForward(x)
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

func TestRealRoundTrip(t *testing.T) {
	for _, n := range []int{2, 4, 8, 32, 6} {
		rng := rand.New(rand.NewSource(int64(n) + 100))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// Rebuild the full spectrum from the nonnegative half by Hermitian
		// symmetry and invert it with the complex transform.
		re, im := RealForward(x)
		y, yi := make([]float64, n), make([]float64, n)
		for k := 0; k < n; k++ {
			if k < len(re) {
				y[k], yi[k] = re[k], im[k]
			} else {
				y[k], yi[k] = re[n-k], -im[n-k]
			}
		}
		Inverse(y, yi)
		for i := range x {
			if math.Abs(x[i]-y[i]/float64(n)) > 1e-10 {
				t.Fatalf("n=%d: real roundtrip mismatch at %d: %v vs %v", n, i, x[i], y[i])
			}
		}
	}
}

func TestParseval(t *testing.T) {
	n := 64
	rng := rand.New(rand.NewSource(11))
	re := make([]float64, n)
	im := make([]float64, n)
	var energyTime float64
	for i := range re {
		re[i] = rng.NormFloat64()
		energyTime += re[i] * re[i]
	}
	Forward(re, im)
	var energyFreq float64
	for i := range re {
		energyFreq += re[i]*re[i] + im[i]*im[i]
	}
	if math.Abs(energyFreq/float64(n)-energyTime) > 1e-8 {
		t.Fatalf("Parseval violated: %v vs %v", energyFreq/float64(n), energyTime)
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
		sumRe := make([]float64, n)
		sumIm := make([]float64, n)
		for i := range sumRe {
			sumRe[i] = a[i] + alpha*b[i]
		}
		Forward(sumRe, sumIm)
		aRe := append([]float64(nil), a...)
		aIm := make([]float64, n)
		Forward(aRe, aIm)
		bRe := append([]float64(nil), b...)
		bIm := make([]float64, n)
		Forward(bRe, bIm)
		for i := 0; i < n; i++ {
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
