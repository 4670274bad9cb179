package main

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one recorded interval around a call into a layer. Spans of one
// request (or one in-process operation) share a trace ID; parent links a
// span to the span that caused it (0 = root).
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run and writes them out when
// the run ends. A nil *tracer records nothing, which is how the end-to-end
// runs call it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a completed span and returns its ID (0 on a nil tracer).
func (t *tracer) add(trace string, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// timed runs f inside a span and returns f's duration.
func (t *tracer) timed(trace string, parent int, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(trace, parent, name, start, end)
	return end.Sub(start)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps the spans as JSONL, preceded by one header line of host facts.
func (t *tracer) write(path string, host map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	err = enc.Encode(map[string]any{"host": host, "spans": len(t.spans)})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// newTraceID mints a W3C trace ID, shared by a request's client span and
// the daemon's own spans through the traceparent header.
func newTraceID() string {
	var b [16]byte
	_, _ = rand.Read(b[:]) // crypto/rand.Read never fails on supported platforms
	return hex.EncodeToString(b[:])
}
