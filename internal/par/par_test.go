package par

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRunSingleRank(t *testing.T) {
	got := 0
	Run(1, SKX(), func(c *Comm) {
		if c.Rank() != 0 || c.Size() != 1 {
			t.Errorf("rank/size wrong: %d/%d", c.Rank(), c.Size())
		}
		got = 42
	})
	if got != 42 {
		t.Fatal("body did not run")
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7} {
		Run(p, SKX(), func(c *Comm) {
			x := []float64{float64(c.Rank()), 1}
			c.AllreduceSum(x)
			wantFirst := float64(p*(p-1)) / 2
			if x[0] != wantFirst || x[1] != float64(p) {
				t.Errorf("p=%d rank=%d: got %v", p, c.Rank(), x)
			}
		})
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	Run(4, SKX(), func(c *Comm) {
		x := []float64{float64(c.Rank()), -float64(c.Rank())}
		c.AllreduceMax(x)
		if x[0] != 3 || x[1] != 0 {
			t.Errorf("max got %v", x)
		}
		y := []float64{float64(c.Rank())}
		c.AllreduceMin(y)
		if y[0] != 0 {
			t.Errorf("min got %v", y)
		}
	})
}

func TestAllreduceSumInt(t *testing.T) {
	Run(3, SKX(), func(c *Comm) {
		x := []int{1, c.Rank()}
		c.AllreduceSumInt(x)
		if x[0] != 3 || x[1] != 3 {
			t.Errorf("int sum got %v", x)
		}
	})
}

func TestBcast(t *testing.T) {
	Run(4, SKX(), func(c *Comm) {
		var data []float64
		if c.Rank() == 2 {
			data = []float64{3.14, 2.71}
		}
		got := Bcast(c, 2, data)
		if len(got) != 2 || got[0] != 3.14 || got[1] != 2.71 {
			t.Errorf("rank %d: bcast got %v", c.Rank(), got)
		}
	})
}

func TestAllgatherv(t *testing.T) {
	Run(3, SKX(), func(c *Comm) {
		local := make([]int, c.Rank()+1)
		for i := range local {
			local[i] = c.Rank()*10 + i
		}
		parts := Allgatherv(c, local)
		if len(parts) != 3 {
			t.Errorf("want 3 parts, got %d", len(parts))
		}
		for r, p := range parts {
			if len(p) != r+1 {
				t.Errorf("part %d has %d elems", r, len(p))
			}
			for i, v := range p {
				if v != r*10+i {
					t.Errorf("part %d elem %d = %d", r, i, v)
				}
			}
		}
		flat, off := AllgathervFlat(c, local)
		if len(flat) != 6 || off[3] != 6 || off[1] != 1 {
			t.Errorf("flat gather wrong: %v %v", flat, off)
		}
	})
}

func TestAlltoallv(t *testing.T) {
	p := 4
	Run(p, SKX(), func(c *Comm) {
		send := make([][]uint64, p)
		for j := 0; j < p; j++ {
			// Send rank-tagged values to rank j.
			send[j] = []uint64{uint64(c.Rank()*100 + j)}
		}
		recv := Alltoallv(c, send)
		for src := 0; src < p; src++ {
			want := uint64(src*100 + c.Rank())
			if len(recv[src]) != 1 || recv[src][0] != want {
				t.Errorf("rank %d from %d: got %v want %d", c.Rank(), src, recv[src], want)
			}
		}
	})
}

func TestSampleSortGlobalOrder(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5} {
		var allRanks [][]KV
		Run(p, SKX(), func(c *Comm) {
			rng := rand.New(rand.NewSource(int64(c.Rank() + 1)))
			items := make([]KV, 50+c.Rank()*13)
			for i := range items {
				items[i] = KV{Key: rng.Uint64() % 1000, Val: uint64(c.Rank())}
			}
			sorted := SampleSort(c, items)
			// Local sortedness.
			for i := 1; i < len(sorted); i++ {
				if sorted[i].Key < sorted[i-1].Key {
					t.Errorf("local chunk not sorted at %d", i)
				}
			}
			// Gather for global checks.
			chunks := Allgatherv(c, sorted)
			if c.Rank() == 0 {
				allRanks = chunks
			}
		})
		// Global order across rank boundaries + conservation of elements.
		var total int
		var prevMax uint64
		for r, chunk := range allRanks {
			total += len(chunk)
			if len(chunk) == 0 {
				continue
			}
			if r > 0 && chunk[0].Key < prevMax {
				t.Fatalf("p=%d: rank %d starts below rank %d max", p, r, r-1)
			}
			prevMax = chunk[len(chunk)-1].Key
		}
		wantTotal := 0
		for r := 0; r < p; r++ {
			wantTotal += 50 + r*13
		}
		if total != wantTotal {
			t.Fatalf("p=%d: element count %d want %d", p, total, wantTotal)
		}
	}
}

func TestSampleSortMatchesSerialSort(t *testing.T) {
	p := 3
	var global []uint64
	var gathered []uint64
	Run(p, SKX(), func(c *Comm) {
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 7))
		items := make([]KV, 40)
		keys := make([]uint64, 40)
		for i := range items {
			k := rng.Uint64() % 500
			items[i] = KV{Key: k}
			keys[i] = k
		}
		allKeys, _ := AllgathervFlat(c, keys)
		sorted := SampleSort(c, items)
		sortedKeys := make([]uint64, len(sorted))
		for i, kv := range sorted {
			sortedKeys[i] = kv.Key
		}
		flat, _ := AllgathervFlat(c, sortedKeys)
		if c.Rank() == 0 {
			global = allKeys
			gathered = flat
		}
	})
	sort.Slice(global, func(i, j int) bool { return global[i] < global[j] })
	if len(global) != len(gathered) {
		t.Fatalf("length mismatch %d vs %d", len(global), len(gathered))
	}
	for i := range global {
		if global[i] != gathered[i] {
			t.Fatalf("mismatch at %d: %d vs %d", i, global[i], gathered[i])
		}
	}
}

func TestVirtualTimeLedger(t *testing.T) {
	w := Run(4, SKX(), func(c *Comm) {
		c.SetLabel("COL")
		x := []float64{1}
		c.AllreduceSum(x)
		c.SetLabel("BIE-solve")
		c.Barrier()
	})
	if w.VirtualTime() <= 0 {
		t.Fatal("virtual time not accumulated")
	}
	if w.Phases() < 3 { // allreduce + barrier + final implicit barrier
		t.Fatalf("phases = %d", w.Phases())
	}
	byLabel := w.TimeByLabel()
	if byLabel["COL"] <= 0 || byLabel["BIE-solve"] <= 0 {
		t.Fatalf("label attribution missing: %v", byLabel)
	}
	if w.CommBytes() <= 0 {
		t.Fatal("comm bytes not counted")
	}
}

func TestKNLComputeScale(t *testing.T) {
	if SKX().ComputeScale >= KNL().ComputeScale {
		t.Fatal("KNL cores must be slower than SKX cores")
	}
	work := func(c *Comm) {
		s := 0.0
		for i := 0; i < 200000; i++ {
			s += float64(i % 7)
		}
		_ = s
		c.Barrier()
	}
	wSkx := Run(2, SKX(), work)
	wKnl := Run(2, KNL(), work)
	// KNL virtual time should be roughly ComputeScale times larger.
	ratio := wKnl.VirtualTime() / wSkx.VirtualTime()
	if ratio < 1.3 {
		t.Fatalf("KNL/SKX virtual time ratio %v, want > 1.3", ratio)
	}
}

func TestBlockRange(t *testing.T) {
	// Partition covers [0, n) exactly once for arbitrary n, p.
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)
		p := int(pRaw)%8 + 1
		covered := make([]int, n)
		for r := 0; r < p; r++ {
			lo, hi := BlockRange(n, p, r)
			if lo > hi {
				return false
			}
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		}
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate from rank")
		}
	}()
	Run(2, SKX(), func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		c.Barrier()
	})
}
