// Package trace is the execution-timeline layer of the system: a bounded
// ring buffer of timestamped begin/end events recorded from the telemetry
// span API (telemetry.SpanTracer), with goroutine/worker and step/sweep-point
// attribution, exportable as Chrome trace_event JSON (chrome.go) for
// Perfetto / chrome://tracing — plus the numerical-health monitor
// (health.go) whose trips feed the flight-recorder postmortem bundles.
//
// Design rules, mirroring the telemetry layer it sits on:
//
//   - Every method is nil-safe: a nil *Recorder (and nil *Health) is a free
//     no-op, so instrumented code never branches on "tracing enabled". When
//     no recorder is attached to a registry, telemetry.Start pays a single
//     atomic load — pinned by BenchmarkSpanUntraced.
//   - The buffer is a fixed-capacity ring: a long run keeps the LAST
//     CapEvents events (the interesting tail when something goes wrong) at
//     bounded memory; the exporter repairs begin/end pairs cut by eviction.
//   - Timelines are attributed two ways: each goroutine maps to a compact
//     thread id (tid), and LabelCurrent pins the CURRENT goroutine to a
//     stable named timeline ("run/rank0"), so the per-segment goroutines of
//     a checkpointed run land on one row per (run, rank) — the sweep-point
//     attribution of campaign traces. SetStep stamps subsequent events of
//     the calling goroutine's timeline with the in-progress step.
package trace

import (
	"runtime"
	"sync"
	"time"

	"rbcflow/internal/telemetry"
)

// DefaultCapEvents is the default ring capacity (~4 MB of events). At the
// phase-level span density of the stepper (tens of events per step per
// rank), this keeps hundreds of steps of tail.
const DefaultCapEvents = 1 << 16

// Event kinds, following the Chrome trace_event phase letters.
const (
	KindBegin    byte = 'B' // span begin
	KindEnd      byte = 'E' // span end
	KindInstant  byte = 'I' // point event (e.g. a health trip)
	KindComplete byte = 'X' // complete event carrying its own duration
)

// Event is one timeline entry. TS is nanoseconds since the recorder epoch;
// for KindComplete events Dur is the span length and TS its backdated start.
// Step is the 1-based simulation step the event belongs to (0 = none).
type Event struct {
	TS   int64
	Dur  int64
	Name string
	Kind byte
	TID  int32
	Step int32
}

// Recorder is a bounded, concurrency-safe execution-timeline recorder. It
// implements telemetry.SpanTracer, so attaching it to a registry
// (Registry.SetTracer) turns every telemetry span into a timeline event.
// All methods are safe on a nil receiver.
type Recorder struct {
	epoch time.Time
	cap   int

	mu     sync.Mutex
	buf    []Event // ring storage; grows to cap, then wraps
	next   int     // next overwrite slot once the ring is full
	total  uint64  // events ever recorded (≥ len(buf))
	goids  map[uint64]int32
	labels map[string]int32
	names  map[int32]string // tid -> timeline label ("" = anonymous)
	steps  map[int32]int32  // tid -> current step attribution
	nextID int32
}

// assert the SpanTracer contract at compile time.
var _ telemetry.SpanTracer = (*Recorder)(nil)

// New builds a recorder keeping the last capEvents events (<= 0 uses
// DefaultCapEvents).
func New(capEvents int) *Recorder {
	if capEvents <= 0 {
		capEvents = DefaultCapEvents
	}
	return &Recorder{
		epoch:  time.Now(),
		cap:    capEvents,
		goids:  map[uint64]int32{},
		labels: map[string]int32{},
		names:  map[int32]string{},
		steps:  map[int32]int32{},
	}
}

// FromRegistry returns the Recorder attached to r as its span tracer (nil
// when none, when the tracer is of another type, or when r is nil) — the
// handle layers use to add attribution calls next to their telemetry spans.
func FromRegistry(r *telemetry.Registry) *Recorder {
	rec, _ := r.Tracer().(*Recorder)
	return rec
}

// curGoID parses the current goroutine id from the runtime.Stack header
// ("goroutine 123 [running]: ..."). Allocation-free: Go offers no public
// goroutine-local storage, and this costs well under a microsecond — fine at
// phase-event granularity.
func curGoID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, b := range buf[len("goroutine "):n] {
		if b < '0' || b > '9' {
			break
		}
		id = id*10 + uint64(b-'0')
	}
	return id
}

// tidForLocked returns (allocating if needed) the compact tid of the calling
// goroutine. Callers hold r.mu.
func (r *Recorder) tidForLocked(goid uint64) int32 {
	if tid, ok := r.goids[goid]; ok {
		return tid
	}
	tid := r.nextID
	r.nextID++
	r.goids[goid] = tid
	return tid
}

func (r *Recorder) record(kind byte, name string, dur int64) {
	if r == nil {
		return
	}
	goid := curGoID()
	r.mu.Lock()
	tid := r.tidForLocked(goid)
	ts := time.Since(r.epoch).Nanoseconds()
	if kind == KindComplete {
		ts -= dur
	}
	ev := Event{TS: ts, Dur: dur, Name: name, Kind: kind, TID: tid, Step: r.steps[tid]}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next = (r.next + 1) % r.cap
	}
	r.total++
	r.mu.Unlock()
}

// SpanBegin records a span-begin event (telemetry.SpanTracer).
func (r *Recorder) SpanBegin(name string) { r.record(KindBegin, name, 0) }

// SpanEnd records a span-end event (telemetry.SpanTracer).
func (r *Recorder) SpanEnd(name string) { r.record(KindEnd, name, 0) }

// Instant records a point event (health trips, markers).
func (r *Recorder) Instant(name string) { r.record(KindInstant, name, 0) }

// Complete records a span that just ended and lasted dur, as a single event
// with a backdated start — the fit for intervals measured with explicit
// marks (the stepper's per-phase breakdown) rather than a begin/end pair.
func (r *Recorder) Complete(name string, dur time.Duration) {
	r.record(KindComplete, name, dur.Nanoseconds())
}

// LabelCurrent pins the CALLING goroutine to the stable timeline named
// label: events it records land on that timeline's tid, shared with every
// past and future goroutine labelled the same. This is how the fresh
// goroutines of each checkpoint segment stay on one "run/rankN" row.
func (r *Recorder) LabelCurrent(label string) {
	if r == nil {
		return
	}
	goid := curGoID()
	r.mu.Lock()
	tid, ok := r.labels[label]
	if !ok {
		tid = r.nextID
		r.nextID++
		r.labels[label] = tid
		r.names[tid] = label
	}
	r.goids[goid] = tid
	r.mu.Unlock()
}

// SetStep stamps subsequent events of the calling goroutine's timeline with
// the 1-based step (0 clears it).
func (r *Recorder) SetStep(step int) {
	if r == nil {
		return
	}
	goid := curGoID()
	r.mu.Lock()
	tid := r.tidForLocked(goid)
	r.steps[tid] = int32(step)
	r.mu.Unlock()
}

// Events returns a copy of the buffered events in the order they were
// recorded (oldest surviving first).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) == r.cap {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// ThreadNames returns tid -> label for every named timeline; anonymous
// goroutine timelines are absent and render as "goroutine <tid>".
func (r *Recorder) ThreadNames() map[int32]string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int32]string, len(r.names))
	for tid, n := range r.names {
		out[tid] = n
	}
	return out
}

// Len returns the number of buffered events; Total the number ever recorded
// (Total - Len have been evicted).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of events ever recorded.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
