package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// The benchmark's own arithmetic: the percentile rule, due-time latency,
// failure counting, ratio bases, and the metric lists against BENCHMARK.json.
// Run with: cd perfbench && go test ./...

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {99, 500}, {100, 900}, {199, 900},
		{200, 950}, {999, 950}, {1000, 990}, {10000, 999},
	} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = p%g, want p%g", tc.n, float64(got)/10, float64(tc.want)/10)
		}
	}
	// At the boundary exactly ten samples lie beyond the reported value.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // unsorted on purpose
	}
	if got := percentile(xs, 950); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (ten samples beyond it)", got)
	}
	if got := percentile(xs, 500); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
}

func TestSetTimingStatesSampleCountAndRejectsUnsupportedTail(t *testing.T) {
	rep := newReport(false)
	rep.setTiming("server.patch", make([]float64, 99), 900)
	if rep.tally.failed != 1 {
		t.Fatalf("99 samples reported as p90 without a failed check (failed=%d)", rep.tally.failed)
	}
	if !strings.Contains(strings.Join(rep.notes, "\n"), "n=99 samples") {
		t.Fatalf("sample count not stated: %q", rep.notes)
	}
	rep = newReport(false)
	rep.setTiming("server.patch", make([]float64, 100), 900)
	if rep.tally.failed != 0 {
		t.Fatalf("100 samples support p90, but the check failed: %q", rep.notes)
	}
}

// TestDueTimeLatencyUnderStall simulates a 100ms stall on the first of four
// requests sent over one connection 10ms apart. Timed from their due time,
// the requests queued behind the stall carry its wait; timed from when they
// were sent, they would look fast.
func TestDueTimeLatencyUnderStall(t *testing.T) {
	ops := []op{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}, {due: 30 * time.Millisecond}}
	first := true
	do := func(_ context.Context, s *sample) {
		if first {
			first = false
			time.Sleep(100 * time.Millisecond)
			return
		}
		time.Sleep(time.Millisecond)
	}
	samples := openLoop(context.Background(), time.Now(), ops, 1, do)
	for i, s := range samples[1:] {
		if s.latency() < 60*time.Millisecond {
			t.Errorf("request %d behind the stall: due-time latency %v hides the stall", i+1, s.latency())
		}
		if sent := s.done.Sub(s.sent); sent > 50*time.Millisecond {
			t.Errorf("request %d: send-time latency %v, want about 1ms", i+1, sent)
		}
		if s.lateness() > 20*time.Millisecond {
			t.Errorf("request %d: the generator itself ran %v late", i+1, s.lateness())
		}
	}
}

// TestFailRatioCounting drives the real client against a stub daemon: a
// 2xx answer succeeds; a non-2xx status, a truncated solve and a transport
// error each fail, and so does a failed output check.
func TestFailRatioCounting(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var q solveRequest
		_ = json.NewDecoder(r.Body).Decode(&q)
		switch q.Seed {
		case 1:
			w.Write([]byte(`{"total_regret": 1}`))
		case 2:
			http.Error(w, `{"error": "solver queue full"}`, http.StatusTooManyRequests)
		case 3:
			w.Write([]byte(`{"total_regret": 1, "truncated": true}`))
		}
	}))
	c := newClient(srv.URL, 2, nil)
	var samples []*sample
	for seed := uint64(1); seed <= 3; seed++ {
		s := &sample{op: &op{solve: &solveRequest{Seed: seed}}}
		c.do(context.Background(), s)
		samples = append(samples, s)
	}
	srv.Close()
	s := &sample{op: &op{solve: &solveRequest{Seed: 1}}}
	c.do(context.Background(), s) // the server is gone: a transport error
	samples = append(samples, s)

	rep := newReport(false)
	summarize(samples, rep)
	rep.check(false, "a failed output check")
	rep.check(true, "a passed output check")
	if rep.tally.attempted != 6 || rep.tally.failed != 4 {
		t.Fatalf("attempted %d, failed %d; want 6 attempted, 4 failed", rep.tally.attempted, rep.tally.failed)
	}
	if got := rep.tally.failRatio(); got != 4.0/6 {
		t.Fatalf("fail ratio %v, want 4/6", got)
	}
	if (&tally{}).failRatio() != 0 {
		t.Fatal("fail ratio of nothing attempted is not 0")
	}
}

func TestEveryRatioCarriesItsBase(t *testing.T) {
	for i, d := range perLayer {
		if d.unit != "ratio" {
			continue
		}
		if i+1 == len(perLayer) || perLayer[i+1].name != d.name+".base" {
			t.Errorf("ratio %s is not followed by its base %s.base", d.name, d.name)
		}
	}
	rep := newReport(false)
	rep.setRatio("solvecache.hit_ratio", 3, 4)
	if rep.metrics["solvecache.hit_ratio"].Value != 0.75 || rep.metrics["solvecache.hit_ratio.base"].Value != 4 {
		t.Fatalf("setRatio recorded %v", rep.metrics)
	}
	rep.setRatio("core.celf_hit_ratio", 0, 0)
	if v := rep.metrics["core.celf_hit_ratio"].Value; v != 0 {
		t.Fatalf("a ratio over an empty base reads %v, want 0", v)
	}
}

func TestParseProm(t *testing.T) {
	snap, err := parseProm(strings.NewReader("# HELP x y\n# TYPE x counter\n" +
		"mroamd_solver_evals_total 42\nmroamd_solve_phase_seconds_sum{phase=\"solve\"} 1.5e-3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if snap["mroamd_solver_evals_total"] != 42 || snap[`mroamd_solve_phase_seconds_sum{phase="solve"}`] != 1.5e-3 {
		t.Fatalf("parsed %v", snap)
	}
	if _, err := parseProm(strings.NewReader("novalue\n")); err == nil {
		t.Fatal("a line without a value parsed")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the declared metric lists and
// workloads in step with BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "paper-build,serve-churn" {
		t.Errorf("BENCHMARK.json workloads %s", got)
	}
}
