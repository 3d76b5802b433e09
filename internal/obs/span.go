package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/units"
)

// Hierarchical span tracing. Spans nest run → experiment → point →
// phase: drivers open a run span, experiments open children, the cache
// scheduler opens one span per executed point (its id derived from the
// point's canonical digest, so the same point carries the same id in
// every trace), and the simulator emits per-iteration phase spans under
// the point on the simulated timebase. Completed spans land in a
// bounded global ring (the newest spans win; tracing can never grow
// memory without bound) and export as JSONL or Chrome trace_event.
//
// Tracing is off by default and costs one atomic load per StartSpan
// when disabled: StartSpan returns a nil handle whose every method is a
// no-op, so instrumented paths never branch on "is tracing on".

// TraceSpan is one completed span in the buffer.
type TraceSpan struct {
	// ID is deterministic: fnv64a over (parent id, name, per-parent
	// occurrence index of name), or an explicit id (point spans use the
	// leading 8 bytes of the point digest). Identical span trees get
	// identical ids across runs; wall-clock fields of course differ.
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Cat is "wall" for host wall-clock spans, "sim" for spans on the
	// simulated timebase.
	Cat string `json:"cat"`
	// Track labels the export lane: the root span's name for wall
	// spans, an explicit track for sim spans.
	Track string `json:"track,omitempty"`
	// StartUS/DurUS are microseconds — since tracing was enabled for
	// wall spans, simulated microseconds for sim spans.
	StartUS float64           `json:"ts_us"`
	DurUS   float64           `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// SpanHandle is an open span. A nil handle is valid: every method is a
// no-op, which is what StartSpan returns while tracing is disabled.
type SpanHandle struct {
	buf   *TraceBuffer
	id    uint64
	track string
	name  string
	start time.Time
	attrs map[string]string

	mu       sync.Mutex
	children map[string]int // per-name occurrence counts
	parentID uint64
	ended    bool
}

// ID returns the span's deterministic id (0 on a nil handle).
func (h *SpanHandle) ID() uint64 {
	if h == nil {
		return 0
	}
	return h.id
}

// SetAttr attaches a key→value detail to the span before End.
func (h *SpanHandle) SetAttr(key, value string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.attrs == nil {
		h.attrs = make(map[string]string)
	}
	h.attrs[key] = value
	h.mu.Unlock()
}

// End completes the span and records it into the trace buffer. End is
// idempotent; a second call does nothing.
func (h *SpanHandle) End() {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.ended {
		h.mu.Unlock()
		return
	}
	h.ended = true
	attrs := h.attrs
	h.mu.Unlock()
	b := h.buf
	b.add(TraceSpan{
		ID:      h.id,
		Parent:  h.parentID,
		Name:    h.name,
		Cat:     "wall",
		Track:   h.track,
		StartUS: float64(h.start.Sub(b.epoch)) / float64(time.Microsecond),
		DurUS:   float64(time.Since(h.start)) / float64(time.Microsecond),
		Attrs:   attrs,
	})
}

// childID derives the deterministic id of a child span: fnv64a over the
// parent id, the name, and how many same-named children the parent has
// already issued (so sequentially-emitted repeats — per-iteration phase
// spans — stay distinct and stable). h may be nil (a root).
func (h *SpanHandle) childID(buf *TraceBuffer, name string) (id, parent uint64) {
	var occ int
	if h != nil {
		parent = h.id
		h.mu.Lock()
		if h.children == nil {
			h.children = make(map[string]int)
		}
		occ = h.children[name]
		h.children[name]++
		h.mu.Unlock()
	} else {
		buf.mu.Lock()
		occ = buf.rootSeen[name]
		buf.rootSeen[name]++
		buf.mu.Unlock()
	}
	return spanID(parent, name, occ), parent
}

// spanID is the deterministic id derivation.
func spanID(parent uint64, name string, occurrence int) uint64 {
	f := fnv.New64a()
	var b [8]byte
	putU64(b[:], parent)
	f.Write(b[:])
	io.WriteString(f, name)
	putU64(b[:], uint64(occurrence))
	f.Write(b[:])
	id := f.Sum64()
	if id == 0 { // 0 means "no parent"; never issue it
		id = 1
	}
	return id
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * uint(7-i)))
	}
}

type spanCtxKey struct{}

// SpanFromContext returns the open span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *SpanHandle {
	h, _ := ctx.Value(spanCtxKey{}).(*SpanHandle)
	return h
}

// ContextWithSpan returns ctx carrying h as the current span.
func ContextWithSpan(ctx context.Context, h *SpanHandle) context.Context {
	if h == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, h)
}

// StartSpan opens a span named name as a child of the span carried by
// ctx (a root when none) and returns the derived context carrying it.
// attrs are alternating key, value pairs. While tracing is disabled it
// returns (ctx, nil) after one atomic load — a nil handle's End and
// SetAttr are no-ops.
func StartSpan(ctx context.Context, name string, attrs ...string) (context.Context, *SpanHandle) {
	buf := Tracing()
	if buf == nil {
		return ctx, nil
	}
	parent := SpanFromContext(ctx)
	id, parentID := parent.childID(buf, name)
	h := newHandle(buf, parent, id, parentID, name, attrs)
	return ContextWithSpan(ctx, h), h
}

// StartSpanWithID is StartSpan with an explicit deterministic id —
// point spans use the leading bytes of the point digest, making the
// span id a function of the point alone, stable across runs, worker
// counts, and schedules.
func StartSpanWithID(ctx context.Context, name string, id uint64, attrs ...string) (context.Context, *SpanHandle) {
	buf := Tracing()
	if buf == nil {
		return ctx, nil
	}
	if id == 0 {
		id = 1
	}
	parent := SpanFromContext(ctx)
	h := newHandle(buf, parent, id, parent.ID(), name, attrs)
	return ContextWithSpan(ctx, h), h
}

func newHandle(buf *TraceBuffer, parent *SpanHandle, id, parentID uint64, name string, attrs []string) *SpanHandle {
	h := &SpanHandle{
		buf:      buf,
		id:       id,
		parentID: parentID,
		name:     name,
		start:    time.Now(),
		attrs:    attrPairs(attrs),
	}
	if parent != nil {
		h.track = parent.track
	} else {
		h.track = name
	}
	return h
}

func attrPairs(kv []string) map[string]string {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// AddSimSpan records a completed span on the simulated timebase under
// parent: start and dur are simulated time, track names the export
// lane ("sim acc+HyVE-opt/LJ"). The id derivation matches StartSpan, so
// the phase spans of a point are as stable across runs as the point
// span itself. No-op while tracing is disabled or parent is nil-safe.
func AddSimSpan(parent *SpanHandle, track, name string, start, dur units.Time, attrs ...string) {
	buf := Tracing()
	if buf == nil {
		return
	}
	id, parentID := parent.childID(buf, name)
	buf.add(TraceSpan{
		ID:      id,
		Parent:  parentID,
		Name:    name,
		Cat:     "sim",
		Track:   track,
		StartUS: float64(start) / 1e6, // picoseconds → microseconds
		DurUS:   float64(dur) / 1e6,
		Attrs:   attrPairs(attrs),
	})
}

// TraceBuffer is a bounded ring of completed spans: recording never
// blocks on an exporter and never grows past the capacity — when full,
// the oldest spans are overwritten and counted as dropped.
type TraceBuffer struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []TraceSpan
	next     int
	total    uint64
	rootSeen map[string]int
}

// DefaultTraceSpans is the global buffer capacity EnableTracing(0) uses.
const DefaultTraceSpans = 16384

// NewTraceBuffer returns an empty buffer holding up to capacity spans
// (DefaultTraceSpans when capacity <= 0).
func NewTraceBuffer(capacity int) *TraceBuffer {
	if capacity <= 0 {
		capacity = DefaultTraceSpans
	}
	return &TraceBuffer{
		epoch:    time.Now(),
		spans:    make([]TraceSpan, 0, capacity),
		rootSeen: make(map[string]int),
	}
}

func (b *TraceBuffer) add(s TraceSpan) {
	b.mu.Lock()
	if len(b.spans) < cap(b.spans) {
		b.spans = append(b.spans, s)
	} else {
		b.spans[b.next] = s
		b.next = (b.next + 1) % len(b.spans)
	}
	b.total++
	b.mu.Unlock()
}

// Snapshot returns the buffered spans, oldest first.
func (b *TraceBuffer) Snapshot() []TraceSpan {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]TraceSpan, 0, len(b.spans))
	out = append(out, b.spans[b.next:]...)
	out = append(out, b.spans[:b.next]...)
	return out
}

// Dropped returns how many spans were overwritten by newer ones.
func (b *TraceBuffer) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.total <= uint64(len(b.spans)) {
		return 0
	}
	return b.total - uint64(len(b.spans))
}

// WriteJSONL writes one JSON object per buffered span, oldest first.
func (b *TraceBuffer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range b.Snapshot() {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("obs: encoding trace span: %w", err)
		}
	}
	return nil
}

// Catapult renders the buffer in the Chrome trace_event format, one
// thread lane per track (wall spans on their root span's lane, sim
// spans on their explicit track), reusing the timeline exporter's
// document types. Span ids and parents ride in args.
func (b *TraceBuffer) Catapult(processName string) CatapultTrace {
	spans := b.Snapshot()
	var tl Timeline // numbers the tracks in first-use order
	events := make([]CatapultEvent, 0, len(spans))
	for _, s := range spans {
		track := s.Track
		if track == "" {
			track = s.Name
		}
		tl.Track(track)
		dur := s.DurUS
		args := map[string]any{"id": s.ID, "cat": s.Cat}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		events = append(events, CatapultEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			TS: s.StartUS, Dur: &dur,
			PID: 1, TID: tl.trackN[track], Args: args,
		})
	}
	return catapultDoc(processName, tl.tracks, events)
}

// WriteCatapult writes the Chrome trace_event JSON document.
func (b *TraceBuffer) WriteCatapult(w io.Writer, processName string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(b.Catapult(processName)); err != nil {
		return fmt.Errorf("obs: encoding span trace: %w", err)
	}
	return nil
}

// --- global buffer -------------------------------------------------------

var globalTrace atomic.Pointer[TraceBuffer]

// EnableTracing installs a fresh global trace buffer of the given
// capacity (DefaultTraceSpans when <= 0) and returns it. Subsequent
// StartSpan/AddSimSpan calls record into it.
func EnableTracing(capacity int) *TraceBuffer {
	b := NewTraceBuffer(capacity)
	globalTrace.Store(b)
	return b
}

// DisableTracing removes the global buffer; StartSpan reverts to its
// disabled no-op fast path.
func DisableTracing() { globalTrace.Store(nil) }

// Tracing returns the global trace buffer, or nil while disabled.
func Tracing() *TraceBuffer { return globalTrace.Load() }

// TracingEnabled reports whether a global trace buffer is installed.
func TracingEnabled() bool { return globalTrace.Load() != nil }
