package bie_test

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"
	"time"

	"rbcflow/internal/bie"
	"rbcflow/internal/scenario"
)

// planHeapMultiple bounds the live heap a plan build may add at one worker
// and at two, as a multiple of the plan file's size (the bie.plan.bytes
// metric): the plan itself, the near lists, and the rectangle caches of the
// patches read around each worker's current chunk. On the network-y wall a
// build that kept every rectangle until it ended peaked at ≈7.7× (one
// worker) and ≈9.0× (two); dropping a patch's rectangles after their last
// reader, chunks dealt in patch order, at ≈3.8× and ≈4.4×; in chunkOrder at
// ≈2.9× and ≈3.4×.
var planHeapMultiple = map[int]float64{1: 3.5, 2: 4}

// TestPlanBuildPeakLiveHeap: the live heap (runtime/metrics
// /gc/heap/live:bytes, sampled every millisecond of the build) of a
// network-y wall plan build at one worker and at two grows by less than
// planHeapMultiple × the plan file's size.
func TestPlanBuildPeakLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the network-y wall's plan twice")
	}
	sc, err := scenario.Get("network-y")
	if err != nil {
		t.Fatal(err)
	}
	var p scenario.Params
	p.Defaults()
	g, err := sc.BuildGeometry(p)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Surf
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	live := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	// The metric is the heap the last collection marked live; collecting at
	// every 10 % of growth keeps it within 10 % of the true live heap.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	for _, workers := range []int{1, 2} {
		runtime.GC()
		base := live()
		peak := base
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					peak = max(peak, live())
				}
			}
		}()
		plan := bie.BuildQuadPlan(s, workers)
		close(stop)
		<-done
		path := filepath.Join(t.TempDir(), "plan.bin")
		if err := bie.SavePlan(path, plan); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		grew := float64(peak - base)
		t.Logf("%d workers: peak live heap %.0f MB above the %.0f MB before the build, plan file %.0f MB (%.2f×)",
			workers, grew/1e6, float64(base)/1e6, float64(st.Size())/1e6, grew/float64(st.Size()))
		if bound := planHeapMultiple[workers]; grew > bound*float64(st.Size()) {
			t.Errorf("%d workers: the build's live heap grew %.0f MB, more than %g× the %.0f MB plan", workers, grew/1e6, bound, float64(st.Size())/1e6)
		}
		runtime.KeepAlive(plan)
	}
}
