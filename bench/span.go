package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Span is one harness-owned timing record around a call into a layer. All
// spans of one run share Run; Parent is the ID of the span that caused this
// one, or -1 for a root.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Run    string  `json:"run"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s Span) dur() float64 { return s.End - s.Start }

// Recorder keeps the spans of one goroutine in memory. Nesting follows the
// call stack: Begin pushes, the returned stop function pops. A nil Recorder
// records nothing, so the same driver code serves the untraced run.
type Recorder struct {
	run   string
	epoch time.Time
	spans []Span
	stack []int
}

// newRecorder starts a recorder; recorders that will be merged into one
// trace share an epoch.
func newRecorder(run string, epoch time.Time) *Recorder {
	return &Recorder{run: run, epoch: epoch}
}

var nopStop = func() {}

// Begin opens a span under the innermost open one and returns its stop
// function.
func (r *Recorder) Begin(name string) func() {
	if r == nil {
		return nopStop
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Run: r.run,
		Start: time.Since(r.epoch).Seconds()})
	r.stack = append(r.stack, id)
	return func() {
		r.spans[id].End = time.Since(r.epoch).Seconds()
		r.stack = r.stack[:len(r.stack)-1]
	}
}

// open is the ID of the innermost open span.
func (r *Recorder) open() int { return r.stack[len(r.stack)-1] }

// Add records an already-measured interval (seconds relative to start) as a
// child of parent; used for durations a layer reports about itself.
func (r *Recorder) Add(parent int, name string, start, end float64) int {
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Run: r.run, Start: start, End: end})
	return id
}

// now is the recorder clock, for Add (0 on a nil recorder).
func (r *Recorder) now() float64 {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch).Seconds()
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// its direct children cover. Children of one parent never overlap here
// (one goroutine per recorder), so the covered part is the sum of their
// durations.
func selfTimes(spans []Span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// under reports the total duration, by name, of the spans strictly below
// root, and the summed duration of root's grandchildren. A replay's children
// are the step's phases and its grandchildren the calls into the layers, so
// the second number is the time the layer calls account for: the root's
// duration less the harness's own glue in the root and the phase spans.
func under(spans []Span, root int) (byName map[string]float64, calls float64) {
	byName = map[string]float64{}
	below := make([]bool, len(spans))
	for i, s := range spans { // parents precede children
		if s.Parent < 0 {
			continue
		}
		if s.Parent == root || below[s.Parent] {
			below[i] = true
			byName[s.Name] += s.dur()
		}
		if spans[s.Parent].Parent == root {
			calls += s.dur()
		}
	}
	return byName, calls
}

// traceFile is what a traced run leaves behind.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfS    map[string]float64 `json:"self_s"` // self time per span name, all spans
	Spans    []Span             `json:"spans"`
}

// writeTrace merges the recorders (renumbering IDs) and writes
// <dir>/<workload>.trace.json.
func writeTrace(dir, workload string, seed int64, recs ...*Recorder) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed, SelfS: map[string]float64{}}
	for _, r := range recs {
		if r == nil {
			continue
		}
		off := len(tf.Spans)
		self := selfTimes(r.spans)
		for i, s := range r.spans {
			tf.SelfS[s.Name] += self[i]
			s.ID += off
			if s.Parent >= 0 {
				s.Parent += off
			}
			tf.Spans = append(tf.Spans, s)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	blob, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	return path, os.WriteFile(path, blob, 0o644)
}
