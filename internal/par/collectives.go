package par

// Barrier synchronizes all ranks (and closes the current compute phase).
func (c *Comm) Barrier() {
	c.finishSegment(0, nil, nil)
}

// AllreduceSum replaces x on every rank with the elementwise sum across
// ranks. All ranks must pass equal-length slices.
func (c *Comm) AllreduceSum(x []float64) {
	res := c.finishSegment(int64(2*len(x)*8), x, func(staged, results []any) {
		p := len(staged)
		sum := make([]float64, len(staged[0].([]float64)))
		for r := 0; r < p; r++ {
			for i, v := range staged[r].([]float64) {
				sum[i] += v
			}
		}
		for r := 0; r < p; r++ {
			results[r] = sum
		}
	}).([]float64)
	copy(x, res)
}

// AllreduceMax replaces x with the elementwise max across ranks.
func (c *Comm) AllreduceMax(x []float64) {
	res := c.finishSegment(int64(2*len(x)*8), x, func(staged, results []any) {
		p := len(staged)
		mx := append([]float64(nil), staged[0].([]float64)...)
		for r := 1; r < p; r++ {
			for i, v := range staged[r].([]float64) {
				if v > mx[i] {
					mx[i] = v
				}
			}
		}
		for r := 0; r < p; r++ {
			results[r] = mx
		}
	}).([]float64)
	copy(x, res)
}

// AllreduceMin replaces x with the elementwise min across ranks.
func (c *Comm) AllreduceMin(x []float64) {
	for i := range x {
		x[i] = -x[i]
	}
	c.AllreduceMax(x)
	for i := range x {
		x[i] = -x[i]
	}
}

// AllreduceSumInt replaces x with the elementwise integer sum across ranks.
func (c *Comm) AllreduceSumInt(x []int) {
	res := c.finishSegment(int64(2*len(x)*8), x, func(staged, results []any) {
		sum := make([]int, len(staged[0].([]int)))
		for r := range staged {
			for i, v := range staged[r].([]int) {
				sum[i] += v
			}
		}
		for r := range results {
			results[r] = sum
		}
	}).([]int)
	copy(x, res)
}

// Bcast distributes root's slice to all ranks (returned value; the input of
// non-root ranks is ignored).
func Bcast[T any](c *Comm, root int, x []T) []T {
	res := c.finishSegment(int64(len(x)*8*(c.Size()-1)), x, func(staged, results []any) {
		v := staged[root]
		for r := range results {
			results[r] = v
		}
	})
	return res.([]T)
}

// Allgatherv gathers each rank's variable-length slice; every rank receives
// the per-rank slices in rank order.
func Allgatherv[T any](c *Comm, local []T) [][]T {
	res := c.finishSegment(estimateBytes[T](len(local)*c.Size()), local, func(staged, results []any) {
		all := make([][]T, len(staged))
		for r := range staged {
			all[r] = staged[r].([]T)
		}
		for r := range results {
			results[r] = all
		}
	})
	return res.([][]T)
}

// AllgathervFlat gathers variable-length slices and concatenates them in
// rank order, also returning the start offset of each rank's chunk.
func AllgathervFlat[T any](c *Comm, local []T) (all []T, offsets []int) {
	parts := Allgatherv(c, local)
	offsets = make([]int, len(parts)+1)
	total := 0
	for r, p := range parts {
		offsets[r] = total
		total += len(p)
	}
	offsets[len(parts)] = total
	all = make([]T, 0, total)
	for _, p := range parts {
		all = append(all, p...)
	}
	return all, offsets
}

// Alltoallv sends send[j] to rank j; returns recv with recv[i] the slice
// received from rank i.
func Alltoallv[T any](c *Comm, send [][]T) [][]T {
	if len(send) != c.Size() {
		panic("par: Alltoallv requires one send slice per rank")
	}
	n := 0
	for _, s := range send {
		n += len(s)
	}
	res := c.finishSegment(estimateBytes[T](n), send, func(staged, results []any) {
		p := len(staged)
		for dst := 0; dst < p; dst++ {
			recv := make([][]T, p)
			for src := 0; src < p; src++ {
				recv[src] = staged[src].([][]T)[dst]
			}
			results[dst] = recv
		}
	})
	return res.([][]T)
}

func estimateBytes[T any](n int) int64 {
	var z T
	size := int64(8)
	switch any(z).(type) {
	case float64, uint64, int64, int:
		size = 8
	case float32, uint32, int32:
		size = 4
	default:
		// Struct payloads: approximate with 24 bytes.
		size = 24
	}
	return int64(n) * size
}

// KV is a key-value pair moved by the spatial-sort exchanges.
type KV struct {
	Key uint64
	Val uint64
}

// BlockRange splits n items contiguously over p ranks; returns [lo, hi) for
// the given rank (the standard block distribution used for cells, patches
// and FMM boxes).
func BlockRange(n, p, rank int) (lo, hi int) {
	base, rem := n/p, n%p
	lo = rank*base + min(rank, rem)
	hi = lo + base
	if rank < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
