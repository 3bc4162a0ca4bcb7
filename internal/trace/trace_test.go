package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"rbcflow/internal/telemetry"
)

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.SpanBegin("a")
	r.SpanEnd("a")
	r.Instant("b")
	r.Complete("c", time.Millisecond)
	r.LabelCurrent("x")
	r.SetStep(3)
	if r.Len() != 0 || r.Total() != 0 || r.Events() != nil || r.ThreadNames() != nil {
		t.Fatal("nil recorder must report empty state")
	}
	if err := r.WriteChrome(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
	if FromRegistry(nil) != nil {
		t.Fatal("FromRegistry(nil) must be nil")
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := New(8)
	for i := 0; i < 20; i++ {
		r.Instant(fmt.Sprintf("ev%d", i))
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
	if r.Total() != 20 {
		t.Fatalf("Total = %d, want 20", r.Total())
	}
	evs := r.Events()
	if evs[0].Name != "ev12" || evs[7].Name != "ev19" {
		t.Fatalf("ring kept wrong tail: first %q last %q", evs[0].Name, evs[7].Name)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("Events not chronological at %d", i)
		}
	}
}

func TestSpanTracerIntegration(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := New(0)
	reg.SetTracer(rec)
	if FromRegistry(reg) != rec {
		t.Fatal("FromRegistry must return the attached recorder")
	}
	stop := telemetry.Start(reg, "phase.outer")
	inner := telemetry.Start(reg, "phase.inner")
	inner()
	stop()
	evs := r0kinds(rec)
	want := []string{"B phase.outer", "B phase.inner", "E phase.inner", "E phase.outer"}
	if strings.Join(evs, ",") != strings.Join(want, ",") {
		t.Fatalf("events = %v, want %v", evs, want)
	}
	// Histogram still records alongside the trace.
	if got := reg.Snapshot().CounterMap()["phase.outer.count"]; got != 1 {
		t.Fatalf("span count = %d, want 1", got)
	}
}

func r0kinds(rec *Recorder) []string {
	var out []string
	for _, ev := range rec.Events() {
		out = append(out, fmt.Sprintf("%c %s", ev.Kind, ev.Name))
	}
	return out
}

func TestLabelAndStepAttribution(t *testing.T) {
	rec := New(0)
	var wg sync.WaitGroup
	for seg := 0; seg < 3; seg++ { // fresh goroutine per "segment", same label
		wg.Add(1)
		go func(seg int) {
			defer wg.Done()
			rec.LabelCurrent("run/rank0")
			rec.SetStep(seg + 1)
			rec.SpanBegin("core.step")
			rec.SpanEnd("core.step")
		}(seg)
		wg.Wait() // serialize so steps are ordered
	}
	evs := rec.Events()
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6", len(evs))
	}
	tid := evs[0].TID
	steps := map[int32]bool{}
	for _, ev := range evs {
		if ev.TID != tid {
			t.Fatalf("labelled goroutines must share one tid: %d vs %d", ev.TID, tid)
		}
		steps[ev.Step] = true
	}
	for s := int32(1); s <= 3; s++ {
		if !steps[s] {
			t.Fatalf("missing step %d attribution (saw %v)", s, steps)
		}
	}
	if name := rec.ThreadNames()[tid]; name != "run/rank0" {
		t.Fatalf("thread name = %q", name)
	}
}

func TestWriteChromeValidates(t *testing.T) {
	rec := New(0)
	rec.LabelCurrent("main")
	rec.SetStep(1)
	rec.SpanBegin("core.step")
	rec.SpanBegin("core.step.solve")
	rec.Complete("core.step.fmm", 2*time.Millisecond)
	rec.SpanEnd("core.step.solve")
	rec.Instant("health.trip:test")
	rec.SpanEnd("core.step")

	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	st, err := ValidateChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateChrome: %v\n%s", err, buf.String())
	}
	if st.Spans != 3 { // step + solve pairs, fmm X
		t.Fatalf("Spans = %d, want 3", st.Spans)
	}
	if st.Instants != 1 {
		t.Fatalf("Instants = %d, want 1", st.Instants)
	}
	if st.ByName["core.step"] == 0 || st.ByName["core.step.fmm"] == 0 {
		t.Fatalf("missing names: %v", st.ByName)
	}
	// thread_name metadata present and step args attached.
	var tr ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	var meta, stepArgs bool
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Args["name"] == "main" {
			meta = true
		}
		if ev.Name == "core.step" && ev.Args["step"] == float64(1) {
			stepArgs = true
		}
	}
	if !meta {
		t.Fatal("missing thread_name metadata event")
	}
	if !stepArgs {
		t.Fatal("missing step args on core.step")
	}
}

func TestWriteChromeRepairsEvictedPairs(t *testing.T) {
	r := New(4)
	r.SpanBegin("old") // will be evicted; its E survives
	r.Instant("pad1")
	r.Instant("pad2")
	r.SpanEnd("old")
	r.SpanBegin("open") // never closed: exporter must synthesize an E
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChrome(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exporter left an invalid trace: %v\n%s", err, buf.String())
	}
}

func TestValidateChromeRejectsBadTraces(t *testing.T) {
	cases := map[string]string{
		"unbalanced E": `{"traceEvents":[{"name":"a","ph":"E","ts":1,"pid":1,"tid":0}]}`,
		"mismatched E": `{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":1,"tid":0},{"name":"b","ph":"E","ts":2,"pid":1,"tid":0}]}`,
		"unclosed B":   `{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":1,"tid":0}]}`,
		"nonmonotone":  `{"traceEvents":[{"name":"a","ph":"i","ts":5,"pid":1,"tid":0},{"name":"b","ph":"i","ts":1,"pid":1,"tid":0}]}`,
		"unnamed":      `{"traceEvents":[{"name":"","ph":"i","ts":1,"pid":1,"tid":0}]}`,
		"bad phase":    `{"traceEvents":[{"name":"a","ph":"Q","ts":1,"pid":1,"tid":0}]}`,
		"negative ts":  `{"traceEvents":[{"name":"a","ph":"i","ts":-1,"pid":1,"tid":0}]}`,
		"not json":     `nope`,
	}
	for name, payload := range cases {
		if _, err := ValidateChrome(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: validator accepted a bad trace", name)
		}
	}
}

func TestStartUntracedZeroAlloc(t *testing.T) {
	// The hot-path contract: with no registry, a span is free; with a
	// registry but no tracer attached, the only cost over the seed telemetry
	// path is one atomic load (1 closure alloc, same as before this layer).
	if n := testing.AllocsPerRun(100, func() {
		telemetry.Start(nil, "bench.span")()
	}); n != 0 {
		t.Fatalf("Start(nil) allocates %v/op, want 0", n)
	}
	reg := telemetry.NewRegistry()
	reg.Histogram("bench.span") // pre-create: steady-state lookup only
	if n := testing.AllocsPerRun(100, func() {
		telemetry.Start(reg, "bench.span")()
	}); n > 1 {
		t.Fatalf("untraced Start(reg) allocates %v/op, want <= 1 (seed parity)", n)
	}
}

// BenchmarkSpanUntraced pins the tracing-off hot path (see also
// TestStartUntracedZeroAlloc for the hard allocation bound).
func BenchmarkSpanUntraced(b *testing.B) {
	b.Run("nil-registry", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			telemetry.Start(nil, "bench.span")()
		}
	})
	b.Run("registry-no-tracer", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		reg.Histogram("bench.span")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			telemetry.Start(reg, "bench.span")()
		}
	})
	b.Run("registry-traced", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		reg.SetTracer(New(1 << 12))
		reg.Histogram("bench.span")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			telemetry.Start(reg, "bench.span")()
		}
	})
}

func TestHealthNilSafe(t *testing.T) {
	var h *Health
	h.BeginStep(1)
	if !h.CheckFinite("x", []float64{1, 2}) || !h.CheckFiniteScalar("x", 1) {
		t.Fatal("nil health must pass all checks")
	}
	h.ObserveSolve(3, 1e-9, true, "", nil)
	h.ObserveContacts(10, 5, 0)
	if h.Tripped() || h.Verdicts() != nil || h.Solves() != nil {
		t.Fatal("nil health must be inert")
	}
	r := h.Report()
	if r.Tripped {
		t.Fatal("nil health report must be zero")
	}
}

func quietHealth(cfg HealthConfig, rec *Recorder, reg *telemetry.Registry) *Health {
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return NewHealth(cfg, rec, reg)
}

func TestHealthCheckFinite(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := New(0)
	h := quietHealth(HealthConfig{}, rec, reg)
	h.BeginStep(7)
	if !h.CheckFinite("core.cellstate", []float64{0, 1, -2}) {
		t.Fatal("finite data must pass")
	}
	if h.CheckFinite("core.cellstate", []float64{0, math.NaN(), 2}) {
		t.Fatal("NaN must fail")
	}
	if !h.Tripped() {
		t.Fatal("NaN must trip the monitor")
	}
	vs := h.Verdicts()
	if len(vs) != 1 || vs[0].Check != "core.cellstate" || vs[0].Step != 7 || !vs[0].Fatal {
		t.Fatalf("verdicts = %+v", vs)
	}
	// Same check+step dedups; a later step records again.
	h.CheckFinite("core.cellstate", []float64{math.Inf(1)})
	if len(h.Verdicts()) != 1 {
		t.Fatal("duplicate (check, step) must dedup")
	}
	h.BeginStep(8)
	h.CheckFinite("core.cellstate", []float64{math.Inf(1)})
	if len(h.Verdicts()) != 2 {
		t.Fatal("new step must record a fresh verdict")
	}
	if got := reg.Snapshot().Counter("health.trips"); got != 2 {
		t.Fatalf("health.trips = %d, want 2", got)
	}
	// Trip lands on the timeline as an instant.
	var sawTrip bool
	for _, ev := range rec.Events() {
		if ev.Kind == KindInstant && strings.HasPrefix(ev.Name, "health.trip:") {
			sawTrip = true
		}
	}
	if !sawTrip {
		t.Fatal("trip must emit a timeline instant")
	}
}

func TestHealthSolveDetectors(t *testing.T) {
	flat := func(n int, v float64) []float64 {
		h := make([]float64, n)
		for i := range h {
			h[i] = v
		}
		return h
	}
	t.Run("breakdown is fatal", func(t *testing.T) {
		h := quietHealth(HealthConfig{}, nil, nil)
		h.ObserveSolve(4, math.NaN(), false, "non-finite residual at iteration 4", flat(4, 0.1))
		if !h.Tripped() {
			t.Fatal("breakdown must trip")
		}
		if h.Verdicts()[0].Check != "bie.gmres.breakdown" {
			t.Fatalf("check = %s", h.Verdicts()[0].Check)
		}
	})
	t.Run("healthy convergence is silent", func(t *testing.T) {
		h := quietHealth(HealthConfig{}, nil, nil)
		hist := []float64{1e-1, 1e-3, 1e-5, 1e-11}
		h.ObserveSolve(4, 1e-11, true, "", hist)
		if h.Tripped() || len(h.Verdicts()) != 0 {
			t.Fatalf("healthy solve produced verdicts: %v", h.Verdicts())
		}
	})
	t.Run("accurate plateau warns, not fatal", func(t *testing.T) {
		// An unconverged plateau at ~1.5e-2, far below stallResidual.
		// Must warn, must NOT trip.
		h := quietHealth(HealthConfig{}, nil, nil)
		h.ObserveSolve(30, 1.5e-2, false, "", flat(30, 1.5e-2))
		if h.Tripped() {
			t.Fatal("accurate plateau must not be fatal")
		}
		vs := h.Verdicts()
		if len(vs) != 1 || vs[0].Check != "bie.gmres.stall" || vs[0].Fatal {
			t.Fatalf("verdicts = %+v", vs)
		}
	})
	t.Run("inaccurate stall is fatal", func(t *testing.T) {
		h := quietHealth(HealthConfig{}, nil, nil)
		h.ObserveSolve(30, 0.8, false, "", flat(30, 0.8))
		if !h.Tripped() {
			t.Fatal("stall above stallResidual must trip")
		}
	})
	t.Run("divergence is fatal", func(t *testing.T) {
		h := quietHealth(HealthConfig{}, nil, nil)
		hist := []float64{1e-2, 1e-3, 1e-1, 10, 500}
		h.ObserveSolve(5, 500, false, "", hist)
		if !h.Tripped() {
			t.Fatal("divergence must trip")
		}
		if h.Verdicts()[0].Check != "bie.gmres.divergence" {
			t.Fatalf("check = %s", h.Verdicts()[0].Check)
		}
	})
	t.Run("solve ring bounded", func(t *testing.T) {
		h := quietHealth(HealthConfig{KeepSolves: 4}, nil, nil)
		for i := 0; i < 10; i++ {
			h.BeginStep(i + 1)
			h.ObserveSolve(3, 1e-9, true, "", nil)
		}
		solves := h.Solves()
		if len(solves) != 4 {
			t.Fatalf("kept %d solves, want 4", len(solves))
		}
		if solves[0].Step != 7 || solves[3].Step != 10 {
			t.Fatalf("ring kept wrong tail: %+v", solves)
		}
	})
}

func TestHealthContacts(t *testing.T) {
	h := quietHealth(HealthConfig{MaxContacts: 100}, nil, nil)
	h.BeginStep(2)
	h.ObserveContacts(50, 20, 0)
	if len(h.Verdicts()) != 0 {
		t.Fatal("clean resolve must be silent")
	}
	h.ObserveContacts(50, 20, 3)
	vs := h.Verdicts()
	if len(vs) != 1 || vs[0].Check != "collision.unresolved" || vs[0].Fatal {
		t.Fatalf("verdicts = %+v", vs)
	}
	if h.Tripped() {
		t.Fatal("unresolved contacts must not trip")
	}
	h.BeginStep(3)
	h.ObserveContacts(101, 1, 0)
	if !h.Tripped() {
		t.Fatal("contact overflow must trip")
	}
}
