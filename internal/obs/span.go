package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// Request-lifecycle span tracing. A Span is one timed operation inside a
// request (admission check, queue wait, cache lookup, the solve itself, a
// single restart slot, response encoding); the spans of one request share a
// trace ID and link to each other through parent span IDs, forming the
// "where did this request's deadline go?" timeline that aggregate
// histograms cannot answer. Identifiers follow the W3C Trace Context
// format (32-hex trace ID, 16-hex span ID) so a trace started by a client
// — mroamload stamps a traceparent header on every replayed request — is
// continued, not restarted, by the server, and the same ID works across
// nodes once solves are distributed.
//
// Tracing is strictly observational, like the solver probes in trace.go:
// a SpanRecorder only appends to its own slice, the solver never reads
// anything back, and with no recorder attached the request path mints no
// IDs and reads no clocks beyond what it always did.

// Span is one completed timed operation within a trace.
type Span struct {
	// TraceID groups every span of one request; 32 lowercase hex digits.
	TraceID string `json:"trace_id"`
	// SpanID identifies this span; 16 lowercase hex digits.
	SpanID string `json:"span_id"`
	// ParentID is the SpanID of the enclosing span ("" for a root). A
	// request root's parent may be a span the server never saw: the
	// client's span ID from an incoming traceparent header.
	ParentID string `json:"parent_id,omitempty"`
	// Name says what the span timed: "request", "admission", "queue",
	// "cache_lookup", "solve", "restart", "encode".
	Name string `json:"name"`
	// Start is the span's wall-clock start.
	Start time.Time `json:"start"`
	// Duration is how long the operation took. Sibling phase spans are
	// laid out contiguously by the server, so their Durations sum exactly
	// to the parent's.
	Duration time.Duration `json:"duration_ns"`
	// Attrs carries small key=value annotations (slot number, regret,
	// outcome). Nil when the span has none.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// randHex returns n random bytes as 2n lowercase hex digits.
func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// Entropy exhaustion is effectively unreachable; degrade to a
		// fixed non-zero pattern rather than failing the request path.
		for i := range b {
			b[i] = 0xfe
		}
	}
	return hex.EncodeToString(b)
}

// NewTraceID mints a random W3C trace ID (32 hex digits).
func NewTraceID() string { return randHex(16) }

// NewSpanID mints a random W3C span ID (16 hex digits).
func NewSpanID() string { return randHex(8) }

// Traceparent flag bit: the caller has sampled this trace.
const traceparentSampled = 0x01

// ParseTraceparent parses a W3C traceparent header
// ("00-<trace-id>-<parent-id>-<flags>"). It accepts any version except the
// reserved ff, and rejects all-zero IDs as the spec requires. ok is false
// for anything malformed; callers then mint fresh IDs instead.
func ParseTraceparent(h string) (traceID, spanID string, sampled bool, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 {
		return "", "", false, false
	}
	version, traceID, spanID, flags := parts[0], parts[1], parts[2], parts[3]
	if !isHex(version, 2) || version == "ff" {
		return "", "", false, false
	}
	// Version 00 has exactly four fields; future versions may append more,
	// which we tolerate, but the first four keep their meaning.
	if version == "00" && len(parts) != 4 {
		return "", "", false, false
	}
	if !isHex(traceID, 32) || traceID == strings.Repeat("0", 32) {
		return "", "", false, false
	}
	if !isHex(spanID, 16) || spanID == strings.Repeat("0", 16) {
		return "", "", false, false
	}
	if !isHex(flags, 2) {
		return "", "", false, false
	}
	f, _ := strconv.ParseUint(flags, 16, 8)
	return traceID, spanID, f&traceparentSampled != 0, true
}

// FormatTraceparent renders a version-00 traceparent header.
func FormatTraceparent(traceID, spanID string, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + traceID + "-" + spanID + "-" + flags
}

// isHex reports whether s is exactly n lowercase hex digits.
func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// A SpanRecorder collects the completed spans of one trace. Methods are
// safe for concurrent use: restart-slot spans arrive from every solver
// worker goroutine.
type SpanRecorder struct {
	traceID string
	mu      sync.Mutex
	spans   []Span
}

// NewSpanRecorder returns a recorder for the given trace ID, minting a
// fresh one when empty.
func NewSpanRecorder(traceID string) *SpanRecorder {
	if traceID == "" {
		traceID = NewTraceID()
	}
	return &SpanRecorder{traceID: traceID}
}

// TraceID returns the trace every recorded span belongs to.
func (r *SpanRecorder) TraceID() string { return r.traceID }

// add appends one completed span.
func (r *SpanRecorder) add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of the completed spans recorded so far.
func (r *SpanRecorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// StartSpan opens a span starting now. parentID may be "" (a root) or a
// span ID the recorder never saw (a client's traceparent span).
func (r *SpanRecorder) StartSpan(name, parentID string) *ActiveSpan {
	return r.StartSpanAt(name, parentID, time.Now())
}

// StartSpanAt opens a span with an explicit start instant, so contiguous
// phases can share exact boundary timestamps and solver callbacks can
// reconstruct span starts from elapsed offsets.
func (r *SpanRecorder) StartSpanAt(name, parentID string, at time.Time) *ActiveSpan {
	return &ActiveSpan{
		rec: r,
		span: Span{
			TraceID:  r.traceID,
			SpanID:   NewSpanID(),
			ParentID: parentID,
			Name:     name,
			Start:    at,
		},
	}
}

// An ActiveSpan is a span that has started but not yet ended. It is NOT
// safe for concurrent use; each goroutine works on its own active spans.
type ActiveSpan struct {
	rec   *SpanRecorder
	span  Span
	ended bool
}

// ID returns the span's ID, usable as a child's parent before End.
func (s *ActiveSpan) ID() string { return s.span.SpanID }

// Start returns the span's start instant.
func (s *ActiveSpan) Start() time.Time { return s.span.Start }

// SetAttr annotates the span. Values are stringified with %v.
func (s *ActiveSpan) SetAttr(key string, value any) {
	if s.span.Attrs == nil {
		s.span.Attrs = make(map[string]string, 4)
	}
	s.span.Attrs[key] = fmt.Sprint(value)
}

// StartChild opens a child span starting now.
func (s *ActiveSpan) StartChild(name string) *ActiveSpan {
	return s.rec.StartSpanAt(name, s.span.SpanID, time.Now())
}

// StartChildAt opens a child span with an explicit start instant.
func (s *ActiveSpan) StartChildAt(name string, at time.Time) *ActiveSpan {
	return s.rec.StartSpanAt(name, s.span.SpanID, at)
}

// End completes the span as of now and records it. End is idempotent: the
// second call is a no-op, so error paths can End defensively.
func (s *ActiveSpan) End() { s.EndAt(time.Now()) }

// EndAt completes the span as of the given instant and records it.
func (s *ActiveSpan) EndAt(at time.Time) {
	if s.ended {
		return
	}
	s.ended = true
	s.span.Duration = at.Sub(s.span.Start)
	s.rec.add(s.span)
}

// Duration returns the span's recorded duration (0 until ended).
func (s *ActiveSpan) Duration() time.Duration { return s.span.Duration }

// SpanTracer adapts the solver probe interface (core.Tracer) to span
// recording: each restart slot of the local-search schedule becomes one
// child span under the request's solve span, annotated with the slot's
// local-optimum regret and eval count, plus an "improved" attribute when
// the slot improved the incumbent. Begin must be called (once) before the
// solve starts; the zero value ignores all events, so a SpanTracer can be
// constructed early and armed late.
//
// The tracer derives span boundaries purely from the elapsed offsets the
// engine already reports, so attaching it reads no additional clocks on
// the solver hot path and cannot perturb results (the engine's hooks are
// observational; see core.Tracer).
type SpanTracer struct {
	mu     sync.Mutex
	rec    *SpanRecorder
	parent string
	start  time.Time
	open   map[int]*ActiveSpan // slot → span between RestartStart and RestartDone
}

// Begin arms the tracer: slot spans become children of parent, with
// elapsed offsets resolved against start.
func (t *SpanTracer) Begin(parent *ActiveSpan, start time.Time) {
	t.mu.Lock()
	t.rec = parent.rec
	t.parent = parent.ID()
	t.start = start
	t.open = make(map[int]*ActiveSpan)
	t.mu.Unlock()
}

// RestartStart implements core.Tracer.
func (t *SpanTracer) RestartStart(slot int, elapsed time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rec == nil {
		return
	}
	sp := t.rec.StartSpanAt("restart", t.parent, t.start.Add(elapsed))
	sp.SetAttr("slot", slot)
	t.open[slot] = sp
}

// RestartDone implements core.Tracer.
func (t *SpanTracer) RestartDone(slot int, regret float64, evals int64, elapsed time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.open[slot]
	if sp == nil {
		return
	}
	delete(t.open, slot)
	sp.SetAttr("regret", strconv.FormatFloat(regret, 'g', -1, 64))
	sp.SetAttr("evals", evals)
	sp.EndAt(t.start.Add(elapsed))
}

// Improved implements core.Tracer: the improving slot's span is annotated
// rather than opening an event span of its own.
func (t *SpanTracer) Improved(slot int, regret float64, elapsed time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp := t.open[slot]; sp != nil {
		sp.SetAttr("improved", strconv.FormatFloat(regret, 'g', -1, 64))
	}
}

// Evals implements core.Tracer.
func (t *SpanTracer) Evals(int64) {}

// Cache implements core.Tracer.
func (t *SpanTracer) Cache(core.CacheStats) {}

var _ core.Tracer = (*SpanTracer)(nil)

// FormatServerTiming renders a Server-Timing header value attributing the
// server-side phases of one request (all durations in milliseconds, the
// header's native unit): queue = waiting for a worker slot, solve = the
// solver (or cache) execution, total = everything the server spent before
// the response headers were written. Metric order is fixed so the header
// is byte-stable for tests.
func FormatServerTiming(queue, solve, total time.Duration) string {
	f := func(d time.Duration) string {
		return strconv.FormatFloat(float64(d.Microseconds())/1e3, 'f', 3, 64)
	}
	return "queue;dur=" + f(queue) + ", solve;dur=" + f(solve) + ", total;dur=" + f(total)
}

// ParseServerTiming parses a Server-Timing header value into metric-name →
// duration (milliseconds). Entries without a dur parameter are reported
// with value 0; a malformed dur — anything but a finite, non-negative
// decimal — drops its entry, so every returned value is finite and ≥ 0.
// Parsing is otherwise deliberately lenient — the header grammar allows
// parameters we never emit.
func ParseServerTiming(h string) map[string]float64 {
	out := make(map[string]float64)
	for _, entry := range strings.Split(h, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ";")
		name := strings.TrimSpace(parts[0])
		if name == "" {
			continue
		}
		val := 0.0
		bad := false
		for _, p := range parts[1:] {
			p = strings.TrimSpace(p)
			if rest, found := strings.CutPrefix(p, "dur="); found {
				v, ok := parseDur(strings.Trim(rest, `"`))
				if !ok {
					bad = true
					break
				}
				val = v
			}
		}
		if !bad {
			out[name] = val
		}
	}
	return out
}

// parseDur parses a Server-Timing dur value: a finite, non-negative
// decimal such as 12.5 or 1e3. strconv.ParseFloat alone would also accept
// signs, NaN, Inf and hex floats (0x1p3); an out-of-range exponent fails
// ParseFloat itself.
func parseDur(s string) (float64, bool) {
	if s == "" || (s[0] < '0' || s[0] > '9') && s[0] != '.' || strings.Trim(s, "0123456789.eE+-") != "" {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// SortSpans orders spans by start time, then by name for equal starts —
// the stable display order /debug/traces uses.
func SortSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].Name < spans[j].Name
	})
}
