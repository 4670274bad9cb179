package obs

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// traceparentSeeds is the FuzzParseTraceparent seed corpus: canonical and
// future-version headers plus the near-misses TestParseTraceparentRejects
// pins.
func traceparentSeeds() []string {
	return []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-03",
		" 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01\t",
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
		"",
		"not-a-header",
	}
}

// FuzzParseTraceparent asserts the traceparent contract under arbitrary
// header values: ParseTraceparent never panics, and for every accepted
// header, formatting the parsed fields and parsing again yields the same
// fields.
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range traceparentSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		traceID, spanID, sampled, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		again := FormatTraceparent(traceID, spanID, sampled)
		t2, s2, sampled2, ok2 := ParseTraceparent(again)
		if !ok2 || t2 != traceID || s2 != spanID || sampled2 != sampled {
			t.Fatalf("ParseTraceparent(%q) = (%q, %q, %v), but its re-format %q parses to (%q, %q, %v, %v)",
				h, traceID, spanID, sampled, again, t2, s2, sampled2, ok2)
		}
	})
}

// serverTimingSeed is one FuzzParseServerTiming input: a header to parse
// and the queue/solve/total durations (in nanoseconds, halved to fit a
// time.Duration) to format and parse back.
type serverTimingSeed struct {
	h                   string
	queue, solve, total uint64
}

// serverTimingSeeds is the FuzzParseServerTiming seed corpus: headers the
// server emits, lenient-grammar cases, and every malformed dur family the
// parser must drop.
func serverTimingSeeds() []serverTimingSeed {
	return []serverTimingSeed{
		{"queue;dur=1.500, solve;dur=42.000, total;dur=43.500", 3_000_000, 84_000_000, 87_000_000},
		{`cache;desc="hit", db;dur="3.25";desc=x, bad;dur=zz, , solo`, 0, 1, 2},
		{"x;dur=NaN, y;dur=Inf, z;dur=-Inf", 1 << 40, 1 << 50, 1 << 62},
		{"x;dur=-1, y;dur=+1, z;dur=-0", 999, 1_000_999, 2_000_000_001},
		{"x;dur=0x1p3, y;dur=1_000, z;dur=1e400", 0, 0, 0},
		{"x;dur=1e3;dur=.5, y;dur=7., z;dur=", math.MaxUint64, 12345, 67890},
		{";dur=1, ;;, x;;dur=2", 7, 8, 9},
	}
}

// FuzzParseServerTiming asserts the Server-Timing contract: the parser
// never panics, every value it returns is finite and non-negative, and
// FormatServerTiming's output parses back to its three durations.
func FuzzParseServerTiming(f *testing.F) {
	for _, s := range serverTimingSeeds() {
		f.Add(s.h, s.queue, s.solve, s.total)
	}
	f.Fuzz(func(t *testing.T, h string, queue, solve, total uint64) {
		for name, v := range ParseServerTiming(h) {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || math.Signbit(v) {
				t.Fatalf("ParseServerTiming(%q)[%q] = %v, want finite and ≥ 0", h, name, v)
			}
		}
		q, s, tot := time.Duration(queue>>1), time.Duration(solve>>1), time.Duration(total>>1)
		hdr := FormatServerTiming(q, s, tot)
		m := ParseServerTiming(hdr)
		for name, d := range map[string]time.Duration{"queue": q, "solve": s, "total": tot} {
			want := float64(d.Microseconds()) / 1e3
			if got, ok := m[name]; !ok || got != want {
				t.Fatalf("FormatServerTiming(%v, %v, %v) = %q parses %s to %v (present %v), want %v",
					q, s, tot, hdr, name, got, ok, want)
			}
		}
	})
}

// TestRegenerateFuzzHeaderCorpora mirrors the other packages' corpus
// regeneration: with UPDATE_FUZZ_CORPUS=1 it rewrites
// testdata/fuzz/FuzzParseTraceparent and testdata/fuzz/FuzzParseServerTiming;
// otherwise it fails if either checked-in corpus went missing.
func TestRegenerateFuzzHeaderCorpora(t *testing.T) {
	corpora := map[string][]string{}
	for _, h := range traceparentSeeds() {
		corpora["FuzzParseTraceparent"] = append(corpora["FuzzParseTraceparent"],
			fmt.Sprintf("go test fuzz v1\nstring(%q)\n", h))
	}
	for _, s := range serverTimingSeeds() {
		corpora["FuzzParseServerTiming"] = append(corpora["FuzzParseServerTiming"],
			fmt.Sprintf("go test fuzz v1\nstring(%q)\nuint64(%d)\nuint64(%d)\nuint64(%d)\n", s.h, s.queue, s.solve, s.total))
	}
	for target, bodies := range corpora {
		dir := filepath.Join("testdata", "fuzz", target)
		if os.Getenv("UPDATE_FUZZ_CORPUS") == "" {
			entries, err := os.ReadDir(dir)
			if err != nil || len(entries) == 0 {
				t.Fatalf("fuzz seed corpus %s missing; regenerate with UPDATE_FUZZ_CORPUS=1 go test -run TestRegenerate", dir)
			}
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, body := range bodies {
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
