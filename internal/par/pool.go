package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Node-level threading. A rank of the virtual-time model is a NODE with
// GOMAXPROCS cores, as on the paper's 48- and 68-core Stampede2 nodes: the
// "for each target, sum over sources" loops of a rank's compute segment run
// on one process-wide pool of helper goroutines. Ranks of one world stay
// token-serialised, so the pool never competes across ranks and a ledger
// segment measures what it always did — the wall time of one rank's work on
// one node. Independent worlds (campaign workers, serve requests) share the
// pool; a helper busy with another world's loop simply does not join, because
// the calling goroutine always takes part and finishes the loop alone if it
// has to.

// maxHelpers bounds the jobs buffer (and so the helpers one loop can be
// offered to); far above any GOMAXPROCS this code meets.
const maxHelpers = 1024

// pool is the process-wide helper set: at most GOMAXPROCS−1 goroutines
// (started lazily, never stopped) receiving loops from jobs.
var pool = struct {
	mu      sync.Mutex
	helpers int
	// jobs is buffered so an offer never blocks the caller. A helper that
	// arrives after the loop is exhausted finds no chunk left and drops it.
	jobs chan *loop
}{jobs: make(chan *loop, maxHelpers)}

// loop is one For call: chunks are claimed through next and counted through
// done, whoever runs them.
type loop struct {
	body       func(lo, hi int)
	n, grain   int
	chunks     int64
	next, done atomic.Int64
	fin        chan struct{} // closed when done reaches chunks
	panicked   atomic.Pointer[any]
}

// For runs body(lo, hi) over the disjoint chunks [k·grain, min((k+1)·grain, n))
// of [0, n), on the calling goroutine plus up to GOMAXPROCS−1 pool helpers,
// and returns when every chunk is done. Chunk boundaries depend only on n and
// grain — never on the core count or on which goroutine claims a chunk — so a
// body that writes only its own chunk's outputs produces bit-identical
// results for any GOMAXPROCS. body must be safe for concurrent calls on
// distinct chunks. A panic in any chunk is re-raised on the caller once the
// loop has drained.
func For(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	want := runtime.GOMAXPROCS(0)
	if want > chunks {
		want = chunks
	}
	if want <= 1 {
		for lo := 0; lo < n; lo += grain {
			body(lo, min(lo+grain, n))
		}
		return
	}
	l := &loop{body: body, n: n, grain: grain, chunks: int64(chunks), fin: make(chan struct{})}
	offer(l, want-1)
	l.run()
	<-l.fin
	if p := l.panicked.Load(); p != nil {
		panic(*p)
	}
}

// offer hands l to up to k helpers, starting them on first use.
func offer(l *loop, k int) {
	if k > maxHelpers {
		k = maxHelpers
	}
	pool.mu.Lock()
	for pool.helpers < k {
		pool.helpers++
		go func() {
			for l := range pool.jobs {
				l.run()
			}
		}()
	}
	pool.mu.Unlock()
	for i := 0; i < k; i++ {
		select {
		case pool.jobs <- l:
		default:
			return // buffer full of pending loops: the caller carries on alone
		}
	}
}

// run claims and executes chunks until none is left.
func (l *loop) run() {
	for {
		k := l.next.Add(1) - 1
		if k >= l.chunks {
			return
		}
		l.chunk(int(k))
		if l.done.Add(1) == l.chunks {
			close(l.fin)
		}
	}
}

func (l *loop) chunk(k int) {
	defer func() {
		if e := recover(); e != nil {
			l.panicked.CompareAndSwap(nil, &e)
		}
	}()
	lo := k * l.grain
	l.body(lo, min(lo+l.grain, l.n))
}
