package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// chunksOf records the chunks For hands out for (n, grain) at a core count.
func chunksOf(n, grain, procs int) map[[2]int]int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var mu sync.Mutex
	got := map[[2]int]int{}
	For(n, grain, func(lo, hi int) {
		mu.Lock()
		got[[2]int{lo, hi}]++
		mu.Unlock()
	})
	return got
}

func TestForCoversEveryIndexOnceAtAnyCoreCount(t *testing.T) {
	for _, tc := range []struct{ n, grain int }{{0, 4}, {1, 4}, {4, 4}, {5, 4}, {1000, 7}, {64, 1}, {10, 0}} {
		ref := chunksOf(tc.n, tc.grain, 1)
		covered := 0
		for c, times := range ref {
			if times != 1 || c[0] >= c[1] {
				t.Fatalf("n=%d grain=%d: chunk %v ran %d times", tc.n, tc.grain, c, times)
			}
			covered += c[1] - c[0]
		}
		if covered != tc.n {
			t.Fatalf("n=%d grain=%d: chunks cover %d indices", tc.n, tc.grain, covered)
		}
		for _, procs := range []int{2, 4, 9} {
			got := chunksOf(tc.n, tc.grain, procs)
			if len(got) != len(ref) {
				t.Fatalf("n=%d grain=%d: %d chunks at %d cores, %d at one", tc.n, tc.grain, len(got), procs, len(ref))
			}
			for c, times := range got {
				if times != 1 || ref[c] != 1 {
					t.Fatalf("n=%d grain=%d procs=%d: chunk %v ran %d times (reference %d)", tc.n, tc.grain, procs, c, times, ref[c])
				}
			}
		}
	}
}

// Independent worlds share the pool, and a loop body may itself call For:
// the caller always takes part, so neither can wait on a helper forever.
func TestForConcurrentAndNested(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				var sum atomic.Int64
				For(50, 3, func(lo, hi int) {
					For(hi-lo, 1, func(a, b int) { sum.Add(int64(b - a)) })
				})
				if sum.Load() != 50 {
					t.Errorf("nested loops covered %d of 50 indices", sum.Load())
				}
			}
		}()
	}
	wg.Wait()
}

func TestForInsideRanks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	Run(3, SKX(), func(c *Comm) {
		out := make([]float64, 200)
		For(len(out), 16, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = float64(i * (c.Rank() + 1))
			}
		})
		sum := []float64{0}
		for _, v := range out {
			sum[0] += v
		}
		c.AllreduceSum(sum)
		if want := float64(199 * 200 / 2 * 6); sum[0] != want {
			t.Errorf("rank %d: sum %v, want %v", c.Rank(), sum[0], want)
		}
	})
}

func TestForReraisesPanicOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer func() {
		if e := recover(); e != "chunk 7" {
			t.Fatalf("recovered %v, want the chunk's panic", e)
		}
		// The pool survives: the next loop runs normally.
		var n atomic.Int64
		For(100, 1, func(lo, hi int) { n.Add(1) })
		if n.Load() != 100 {
			t.Fatalf("after a panic the pool ran %d of 100 chunks", n.Load())
		}
	}()
	For(64, 1, func(lo, hi int) {
		if lo == 7 {
			panic("chunk 7")
		}
	})
	t.Fatal("For returned normally")
}
