package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"rbcflow/internal/scenario"
)

// item is one admitted request: the run spec mapped from it, its
// cancellation scope, and the response channel the HTTP handler blocks on.
// BIE-tier items ride through the batch queue; surrogate-tier items are
// answered on the handler's goroutine and never see it.
type item struct {
	spec scenario.RunSpec
	key  string // scenario name + "|" + GeometryKey — the coalescing unit
	ctx  context.Context
	enq  time.Time
	done chan *RunResult // buffered(1); exactly one result per item
	// cleanup releases the item's merged cancellation scope (the AfterFunc
	// watching the server base context plus the derived cancel); the server
	// invokes it exactly once, right before delivering the result.
	cleanup func()
}

// batch collects items that share a geometry key until it is dispatched —
// when it reaches MaxBatch items, or when BatchWait elapses after its first
// item, whichever comes first.
type batch struct {
	key   string
	items []*item
	timer *time.Timer
}

// errDraining is returned by submit once the daemon has begun draining.
var errDraining = errors.New("serve: draining, not accepting new runs")

// batcher owns the coalescing queue and the bounded execution pool.
type batcher struct {
	cfg Config
	srv *Server // results, metrics, stats flow back through the server

	mu       sync.Mutex
	pending  map[string]*batch
	draining bool

	sem chan struct{}  // execution slots: at most cfg.Workers runs step concurrently
	wg  sync.WaitGroup // every dispatched batch; Drain waits on it
}

func newBatcher(cfg Config, srv *Server) *batcher {
	return &batcher{
		cfg:     cfg,
		srv:     srv,
		pending: map[string]*batch{},
		sem:     make(chan struct{}, cfg.Workers),
	}
}

// submit enqueues an item onto its key's pending batch, dispatching the
// batch when full. The caller then waits on it.done (or it.ctx).
func (bt *batcher) submit(it *item) error {
	bt.mu.Lock()
	if bt.draining {
		bt.mu.Unlock()
		return errDraining
	}
	b, ok := bt.pending[it.key]
	if !ok {
		b = &batch{key: it.key}
		bt.pending[it.key] = b
		// The max-wait clock starts at the batch's FIRST item; later
		// arrivals ride whatever remains of the window.
		b.timer = time.AfterFunc(bt.cfg.BatchWait, func() { bt.dispatchKey(it.key, b) })
	}
	b.items = append(b.items, it)
	full := len(b.items) >= bt.cfg.MaxBatch
	if full {
		delete(bt.pending, it.key)
		b.timer.Stop()
	}
	bt.mu.Unlock()
	if full {
		bt.launch(b)
	}
	return nil
}

// dispatchKey is the timer path: dispatch the batch if it is still pending
// (a size-triggered dispatch may have raced the timer and won).
func (bt *batcher) dispatchKey(key string, b *batch) {
	bt.mu.Lock()
	cur, ok := bt.pending[key]
	if !ok || cur != b {
		bt.mu.Unlock()
		return
	}
	delete(bt.pending, key)
	bt.mu.Unlock()
	bt.launch(b)
}

// flushPending dispatches every pending batch immediately (drain path).
func (bt *batcher) flushPending() {
	bt.mu.Lock()
	var out []*batch
	for key, b := range bt.pending {
		b.timer.Stop()
		delete(bt.pending, key)
		out = append(out, b)
	}
	bt.mu.Unlock()
	for _, b := range out {
		bt.launch(b)
	}
}

// launch executes a dispatched batch: every item runs on the bounded pool.
// Each item's world steps independently (they are separate runs), but the
// run engine hands all of them the same *Geom, so the wall-operator plan is
// built exactly once and shared.
func (bt *batcher) launch(b *batch) {
	bt.wg.Add(1)
	bt.srv.noteBatch(len(b.items))
	go func() {
		defer bt.wg.Done()
		var itemWG sync.WaitGroup
		for _, it := range b.items {
			itemWG.Add(1)
			go func(it *item) {
				defer itemWG.Done()
				bt.srv.finish(it, bt.runItem(it, len(b.items)))
			}(it)
		}
		itemWG.Wait()
	}()
}

// runItem holds one item until an execution slot frees up, then hands it to
// the run engine.
func (bt *batcher) runItem(it *item, batchSize int) *RunResult {
	select {
	case bt.sem <- struct{}{}:
		defer func() { <-bt.sem }()
	case <-it.ctx.Done():
		// Cancelled while queued: it needs no slot, because the engine
		// refuses a dead context before doing any work.
	}
	queued := time.Since(it.enq).Seconds()
	res := bt.srv.run(it)
	res.Coalesced, res.BatchSize, res.Timing.QueueSec = batchSize > 1, batchSize, queued
	return res
}
