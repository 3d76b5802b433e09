package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/units"
)

// Timeline collects named spans on named tracks and renders them in the
// Chrome trace_event ("catapult") JSON format, loadable in
// chrome://tracing and Perfetto. Simulated picosecond timestamps are
// exported as the format's microsecond doubles, so a whole HyVE
// iteration (tens of milliseconds simulated) renders with sub-cycle
// resolution.
//
// Tracks map to the format's threads inside one process; they appear in
// first-use order (thread_sort_index metadata pins the order, since
// trace viewers otherwise sort by tid activity).

// Span is one complete ("ph":"X") event on a track.
type Span struct {
	// Track names the horizontal lane ("PU 3", "router", "edge-bank 17").
	Track string
	// Name is the span's label ("block (4,12)", "awake").
	Name string
	// Cat is the trace_event category, used for filtering in the viewer
	// ("load", "process", "gate", …).
	Cat string
	// Start and Dur position the span in simulated time.
	Start units.Time
	Dur   units.Time
	// Args carries optional key→value detail shown on click.
	Args map[string]any
}

// End returns the span's end time.
func (s Span) End() units.Time { return s.Start + s.Dur }

// Timeline accumulates spans. The zero value is ready to use.
type Timeline struct {
	spans  []Span
	tracks []string       // first-use order
	trackN map[string]int // track name → tid
}

// Track registers a track without adding a span, pinning its place in
// the display order (tracks otherwise appear in first-span order).
func (tl *Timeline) Track(name string) {
	if tl.trackN == nil {
		tl.trackN = map[string]int{}
	}
	if _, ok := tl.trackN[name]; !ok {
		tl.trackN[name] = len(tl.tracks)
		tl.tracks = append(tl.tracks, name)
	}
}

// Add appends one span.
func (tl *Timeline) Add(s Span) {
	tl.Track(s.Track)
	tl.spans = append(tl.spans, s)
}

// Spans returns the spans in insertion order (test support).
func (tl *Timeline) Spans() []Span { return tl.spans }

// Tracks returns the track names in first-use order.
func (tl *Timeline) Tracks() []string { return append([]string(nil), tl.tracks...) }

// End returns the latest span end on the timeline.
func (tl *Timeline) End() units.Time {
	var end units.Time
	for _, s := range tl.spans {
		if s.End() > end {
			end = s.End()
		}
	}
	return end
}

// CatapultEvent is one trace_event in the exported JSON. Exported so
// tests (and downstream tools) can round-trip the output through
// encoding/json.
type CatapultEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  *float64       `json:"dur,omitempty"` // microseconds, "X" events only
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// CatapultTrace is the exported top-level document (JSON Object Format).
type CatapultTrace struct {
	TraceEvents     []CatapultEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// psToUS converts simulated picoseconds to the format's microseconds.
func psToUS(t units.Time) float64 { return float64(t) / 1e6 }

// Catapult assembles the trace document: per-track thread_name and
// thread_sort_index metadata first, then every span as a complete event,
// in insertion order. The output is deterministic for a deterministic
// span sequence (map-valued args marshal with sorted keys).
func (tl *Timeline) Catapult(processName string) CatapultTrace {
	events := make([]CatapultEvent, 0, len(tl.spans))
	for _, s := range tl.spans {
		dur := psToUS(s.Dur)
		events = append(events, CatapultEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			TS: psToUS(s.Start), Dur: &dur,
			PID: 1, TID: tl.trackN[s.Track], Args: s.Args,
		})
	}
	return catapultDoc(processName, tl.tracks, events)
}

// catapultDoc assembles a trace document for one process: its
// process_name record, then thread_name and thread_sort_index metadata
// for every track (the track's index is its tid, pinning the display
// order), then events as given.
func catapultDoc(processName string, tracks []string, events []CatapultEvent) CatapultTrace {
	out := make([]CatapultEvent, 0, 2*len(tracks)+len(events)+1)
	out = append(out, CatapultEvent{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": processName},
	})
	for tid, track := range tracks {
		out = append(out,
			CatapultEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": track}},
			CatapultEvent{Name: "thread_sort_index", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"sort_index": tid}},
		)
	}
	return CatapultTrace{TraceEvents: append(out, events...), DisplayTimeUnit: "ns"}
}

// WriteCatapult writes the catapult JSON document to w.
func (tl *Timeline) WriteCatapult(w io.Writer, processName string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(tl.Catapult(processName)); err != nil {
		return fmt.Errorf("obs: encoding catapult trace: %w", err)
	}
	return nil
}
