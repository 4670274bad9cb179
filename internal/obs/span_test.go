package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func TestTraceparentRoundTrip(t *testing.T) {
	traceID, spanID := NewTraceID(), NewSpanID()
	if len(traceID) != 32 || !isHex(traceID, 32) {
		t.Fatalf("NewTraceID() = %q, want 32 hex digits", traceID)
	}
	if len(spanID) != 16 || !isHex(spanID, 16) {
		t.Fatalf("NewSpanID() = %q, want 16 hex digits", spanID)
	}
	for _, sampled := range []bool{false, true} {
		h := FormatTraceparent(traceID, spanID, sampled)
		gotTrace, gotSpan, gotSampled, ok := ParseTraceparent(h)
		if !ok || gotTrace != traceID || gotSpan != spanID || gotSampled != sampled {
			t.Errorf("round trip %q: got (%q,%q,%v,%v)", h, gotTrace, gotSpan, gotSampled, ok)
		}
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, _, _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("canonical header rejected: %q", valid)
	}
	// Future versions may carry extra fields; version 00 may not.
	if _, _, _, ok := ParseTraceparent("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Error("future-version header with extra field rejected")
	}
	for _, h := range []string{
		"",
		"not-a-header",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // reserved version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // 00 with trailing field
		"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01",    // all-zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",   // all-zero span id
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",   // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01",     // short trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902-01",     // short span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",   // non-hex flags
		"0-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",    // short version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // missing flags
	} {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want rejection", h)
		}
	}
	// Sampled flag is bit 0.
	if _, _, sampled, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"); !ok || sampled {
		t.Errorf("flags 00: sampled=%v ok=%v, want false,true", sampled, ok)
	}
	if _, _, sampled, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-03"); !ok || !sampled {
		t.Errorf("flags 03: sampled=%v ok=%v, want true,true", sampled, ok)
	}
}

func TestSpanRecorderTree(t *testing.T) {
	rec := NewSpanRecorder("")
	if !isHex(rec.TraceID(), 32) {
		t.Fatalf("minted trace id %q not 32 hex", rec.TraceID())
	}
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	root := rec.StartSpanAt("request", "client-span", t0)
	admission := root.StartChildAt("admission", t0)
	admission.EndAt(t0.Add(1 * time.Millisecond))
	queue := root.StartChildAt("queue", t0.Add(1*time.Millisecond))
	queue.EndAt(t0.Add(3 * time.Millisecond))
	solve := root.StartChildAt("solve", t0.Add(3*time.Millisecond))
	solve.SetAttr("algorithm", "BLS")
	solve.EndAt(t0.Add(9 * time.Millisecond))
	root.EndAt(t0.Add(9 * time.Millisecond))
	// End is idempotent.
	root.EndAt(t0.Add(99 * time.Millisecond))

	spans := rec.Spans()
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(spans))
	}
	SortSpans(spans)
	byName := make(map[string]Span)
	for _, s := range spans {
		byName[s.Name] = s
		if s.TraceID != rec.TraceID() {
			t.Errorf("span %q trace id %q != recorder %q", s.Name, s.TraceID, rec.TraceID())
		}
	}
	if spans[0].Name != "admission" && spans[0].Name != "request" {
		t.Errorf("sorted order starts with %q", spans[0].Name)
	}
	req := byName["request"]
	if req.ParentID != "client-span" {
		t.Errorf("root parent = %q, want client-span", req.ParentID)
	}
	if req.Duration != 9*time.Millisecond {
		t.Errorf("idempotent End: duration %v, want 9ms", req.Duration)
	}
	var phaseSum time.Duration
	for _, name := range []string{"admission", "queue", "solve"} {
		s := byName[name]
		if s.ParentID != req.SpanID {
			t.Errorf("%s parent = %q, want root %q", name, s.ParentID, req.SpanID)
		}
		phaseSum += s.Duration
	}
	if phaseSum != req.Duration {
		t.Errorf("contiguous phases sum to %v, root is %v", phaseSum, req.Duration)
	}
	if byName["solve"].Attrs["algorithm"] != "BLS" {
		t.Errorf("solve attrs = %v", byName["solve"].Attrs)
	}
}

func TestSpanTracer(t *testing.T) {
	rec := NewSpanRecorder("")
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	solve := rec.StartSpanAt("solve", "", t0)

	var tr SpanTracer
	// Zero value ignores events entirely.
	tr.RestartStart(0, 0)
	tr.RestartDone(0, 1.5, 10, time.Millisecond)
	if n := len(rec.Spans()); n != 0 {
		t.Fatalf("unarmed tracer recorded %d spans", n)
	}

	tr.Begin(solve, t0)
	var wg sync.WaitGroup
	for slot := 0; slot < 4; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			start := time.Duration(slot) * time.Millisecond
			tr.RestartStart(slot, start)
			if slot == 2 {
				tr.Improved(slot, 0.5, start)
			}
			tr.RestartDone(slot, float64(slot)/10, int64(100+slot), start+time.Millisecond)
		}(slot)
	}
	wg.Wait()
	// Unknown-slot Done and no-op hooks must be harmless.
	tr.RestartDone(99, 0, 0, 0)
	tr.Improved(99, 0, 0)
	tr.Evals(123)
	tr.Cache(core.CacheStats{})

	spans := rec.Spans()
	if len(spans) != 4 {
		t.Fatalf("recorded %d restart spans, want 4", len(spans))
	}
	seen := make(map[string]bool)
	for _, s := range spans {
		if s.Name != "restart" || s.ParentID != solve.ID() {
			t.Errorf("span %+v: want restart child of solve", s)
		}
		if s.Duration != time.Millisecond {
			t.Errorf("slot %s duration %v, want 1ms", s.Attrs["slot"], s.Duration)
		}
		if s.Attrs["evals"] == "" || s.Attrs["regret"] == "" {
			t.Errorf("slot span missing attrs: %v", s.Attrs)
		}
		seen[s.Attrs["slot"]] = true
		if s.Attrs["slot"] == "2" && s.Attrs["improved"] == "" {
			t.Errorf("slot 2 missing improved attr: %v", s.Attrs)
		}
	}
	for _, slot := range []string{"0", "1", "2", "3"} {
		if !seen[slot] {
			t.Errorf("no span for slot %s", slot)
		}
	}
}

func TestServerTimingRoundTrip(t *testing.T) {
	h := FormatServerTiming(1500*time.Microsecond, 42*time.Millisecond, 43500*time.Microsecond)
	want := "queue;dur=1.500, solve;dur=42.000, total;dur=43.500"
	if h != want {
		t.Fatalf("FormatServerTiming = %q, want %q", h, want)
	}
	m := ParseServerTiming(h)
	if m["queue"] != 1.5 || m["solve"] != 42 || m["total"] != 43.5 {
		t.Errorf("ParseServerTiming(%q) = %v", h, m)
	}
	// Lenient grammar: extra params, quotes, missing dur, malformed dur.
	m = ParseServerTiming(`cache;desc="hit", db;dur="3.25";desc=x, bad;dur=zz, , solo`)
	if m["cache"] != 0 || m["db"] != 3.25 || m["solo"] != 0 {
		t.Errorf("lenient parse = %v", m)
	}
	if _, present := m["bad"]; present {
		t.Errorf("malformed dur kept: %v", m)
	}
}

// TestParseServerTimingDropsNonDecimalDur: a dur that strconv.ParseFloat
// accepts but that is not a finite, non-negative decimal drops its entry
// instead of reaching the recorded per-request server times.
func TestParseServerTimingDropsNonDecimalDur(t *testing.T) {
	for _, tc := range []struct {
		dur  string
		want float64 // -1 = entry dropped
	}{
		{"12.5", 12.5},
		{"0", 0},
		{".5", 0.5},
		{"7.", 7},
		{"1e3", 1000},
		{"2.5E-1", 0.25},
		{`"3.25"`, 3.25},
		{"NaN", -1},
		{"nan", -1},
		{"Inf", -1},
		{"+Inf", -1},
		{"-Inf", -1},
		{"infinity", -1},
		{"-1", -1},
		{"-0", -1},
		{"+1", -1},
		{"0x1p3", -1},
		{"0X10", -1},
		{"1_000", -1},
		{"1e400", -1},
		{"", -1},
		{"e5", -1},
	} {
		m := ParseServerTiming("x;dur=" + tc.dur)
		got, present := m["x"]
		switch {
		case tc.want < 0 && present:
			t.Errorf("dur=%s: kept as %v, want the entry dropped", tc.dur, got)
		case tc.want >= 0 && (!present || got != tc.want):
			t.Errorf("dur=%s: got %v (present %v), want %v", tc.dur, got, present, tc.want)
		}
	}
}
