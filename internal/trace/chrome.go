package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// ChromeEvent is one entry of the Chrome trace_event JSON format (the
// subset we emit and validate): https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
// Timestamps and durations are in microseconds, per the format.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level JSON object (the "JSON Object Format" of the
// spec, which Perfetto and chrome://tracing both load).
type ChromeTrace struct {
	TraceEvents []ChromeEvent `json:"traceEvents"`
	DisplayUnit string        `json:"displayTimeUnit,omitempty"`
}

// chromeEvents renders the recorder's buffered timeline as a well-formed
// Chrome event list:
//
//   - events are stable-sorted by timestamp (Complete events are backdated
//     by their duration, so ring order is not time order);
//   - per-timeline B/E pairing is repaired: end events whose begin was
//     evicted from the ring (or that interleave wrongly after a partial
//     tail) are dropped, and still-open spans get synthesized closing ends,
//     so every consumer sees balanced, properly nested B/E stacks;
//   - each named timeline gets a thread_name metadata event, and events
//     recorded during a simulation step carry {"step": N} args.
func (r *Recorder) chromeEvents() []ChromeEvent {
	if r == nil {
		return nil
	}
	evs := r.Events()
	names := r.ThreadNames()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })

	out := make([]ChromeEvent, 0, len(evs)+2*len(names))
	for tid, name := range names {
		out = append(out, ChromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	// Metadata order must be deterministic for golden-ish assertions.
	sort.Slice(out, func(i, j int) bool { return out[i].TID < out[j].TID })

	stacks := map[int32][]string{}
	lastTS := float64(0)
	for _, ev := range evs {
		ts := float64(ev.TS) / 1e3
		if ts < lastTS {
			ts = lastTS // clamp clock jitter so output is monotone
		}
		lastTS = ts
		ce := ChromeEvent{Name: ev.Name, Cat: "span", Ph: string(ev.Kind), TS: ts, PID: 1, TID: ev.TID}
		if ev.Step > 0 {
			ce.Args = map[string]any{"step": ev.Step}
		}
		switch ev.Kind {
		case KindBegin:
			stacks[ev.TID] = append(stacks[ev.TID], ev.Name)
		case KindEnd:
			st := stacks[ev.TID]
			if len(st) == 0 || st[len(st)-1] != ev.Name {
				// Orphan end: its begin fell off the ring (or nesting was
				// broken by eviction). Drop it rather than emit an
				// unbalanced stack.
				continue
			}
			stacks[ev.TID] = st[:len(st)-1]
		case KindInstant:
			ce.Ph = "i"
			ce.Cat = "mark"
			if ce.Args == nil {
				ce.Args = map[string]any{}
			}
			ce.Args["s"] = "t" // instant scope: thread
		case KindComplete:
			ce.Ph = "X"
			ce.Dur = float64(ev.Dur) / 1e3
		default:
			continue
		}
		out = append(out, ce)
	}
	// Close any still-open spans at the final timestamp, innermost first.
	tids := make([]int32, 0, len(stacks))
	for tid := range stacks {
		if len(stacks[tid]) > 0 {
			tids = append(tids, tid)
		}
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		st := stacks[tid]
		for i := len(st) - 1; i >= 0; i-- {
			out = append(out, ChromeEvent{
				Name: st[i], Cat: "span", Ph: "E", TS: lastTS, PID: 1, TID: tid,
			})
		}
	}
	return out
}

// WriteChrome writes the buffered timeline as Chrome trace_event JSON. It
// satisfies telemetry.ChromeWriter, which is what the debug server's /trace
// endpoint probes for.
func (r *Recorder) WriteChrome(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(ChromeTrace{TraceEvents: r.chromeEvents(), DisplayUnit: "ms"})
}

// WriteChromeFile writes the timeline to path, creating parent directories.
func (r *Recorder) WriteChromeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ChromeStats summarizes a validated trace, for tests and CI assertions.
type ChromeStats struct {
	Events   int // total events, metadata included
	Spans    int // B/E pairs + X events
	Instants int
	Threads  int            // distinct tids with at least one non-metadata event
	ByName   map[string]int // non-metadata event count per name
	MaxTS    float64        // largest timestamp seen (µs)
}

// ValidateChrome parses Chrome trace_event JSON and checks the invariants
// our exporter guarantees: every event has a name and a known phase,
// timestamps are finite, non-negative, and monotone non-decreasing in
// written order, durations are non-negative, and per-tid B/E events are
// balanced and properly nested. Returns summary stats on success.
func ValidateChrome(rd io.Reader) (ChromeStats, error) {
	var tr ChromeTrace
	st := ChromeStats{ByName: map[string]int{}}
	if err := json.NewDecoder(rd).Decode(&tr); err != nil {
		return st, fmt.Errorf("trace: parse: %w", err)
	}
	stacks := map[int32][]string{}
	threads := map[int32]bool{}
	lastTS := float64(0)
	for i, ev := range tr.TraceEvents {
		st.Events++
		if ev.Name == "" {
			return st, fmt.Errorf("trace: event %d has no name", i)
		}
		if ev.Ph == "M" {
			continue
		}
		if ev.TS < 0 || ev.TS != ev.TS {
			return st, fmt.Errorf("trace: event %d (%s) has bad ts %v", i, ev.Name, ev.TS)
		}
		if ev.TS < lastTS {
			return st, fmt.Errorf("trace: event %d (%s) ts %v precedes previous %v", i, ev.Name, ev.TS, lastTS)
		}
		lastTS = ev.TS
		if ev.TS > st.MaxTS {
			st.MaxTS = ev.TS
		}
		threads[ev.TID] = true
		st.ByName[ev.Name]++
		switch ev.Ph {
		case "B":
			stacks[ev.TID] = append(stacks[ev.TID], ev.Name)
		case "E":
			s := stacks[ev.TID]
			if len(s) == 0 {
				return st, fmt.Errorf("trace: event %d: E %q on tid %d with no open span", i, ev.Name, ev.TID)
			}
			if s[len(s)-1] != ev.Name {
				return st, fmt.Errorf("trace: event %d: E %q on tid %d does not match open span %q", i, ev.Name, ev.TID, s[len(s)-1])
			}
			stacks[ev.TID] = s[:len(s)-1]
			st.Spans++
		case "X":
			if ev.Dur < 0 || ev.Dur != ev.Dur {
				return st, fmt.Errorf("trace: event %d (%s) has bad dur %v", i, ev.Name, ev.Dur)
			}
			st.Spans++
		case "i", "I":
			st.Instants++
		default:
			return st, fmt.Errorf("trace: event %d (%s) has unknown phase %q", i, ev.Name, ev.Ph)
		}
	}
	for tid, s := range stacks {
		if len(s) > 0 {
			return st, fmt.Errorf("trace: tid %d ends with %d unclosed span(s), first %q", tid, len(s), s[0])
		}
	}
	st.Threads = len(threads)
	return st, nil
}
