package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestRunFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &buf, nil); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-city", "Atlantis"}, &buf, nil); err == nil {
		t.Error("unknown city accepted")
	}
	// flag.Float64 parses NaN; it must be refused before it reaches the
	// coverage join, where it used to crash the process.
	if err := run([]string{"-scale", "0.01", "-lambda", "NaN"}, &buf, nil); err == nil || !strings.Contains(err.Error(), "finite") {
		t.Errorf("-lambda NaN: %v, want a finiteness error", err)
	}
	if err := run([]string{"-data", "/nonexistent/dataset"}, &buf, nil); err == nil {
		t.Error("missing dataset directory accepted")
	}
	if err := run([]string{"-addr", "not-an-address", "-scale", "0.02"}, &buf, nil); err == nil {
		t.Error("unlistenable address accepted")
	}
	if err := run([]string{"-instances", "/nonexistent/specs.json"}, &buf, nil); err == nil {
		t.Error("missing specs file accepted")
	}
	// -instances owns the instance definitions; mixing in per-instance
	// flags is a configuration error, not a silent override.
	specs := filepath.Join(t.TempDir(), "specs.json")
	if err := os.WriteFile(specs, []byte(`[{"name":"a","scale":0.02}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-instances", specs, "-city", "SG"}, &buf, nil)
	if err == nil || !strings.Contains(err.Error(), "-city") {
		t.Errorf("spec-flag clash with -instances: %v", err)
	}
}

// TestRunInstancesFleet boots the daemon from a fleet file, solves against
// each named instance, and hot-swaps one over the admin API.
func TestRunInstancesFleet(t *testing.T) {
	specs := filepath.Join(t.TempDir(), "specs.json")
	fleet := `[
  {"name": "nyc", "city": "NYC", "scale": 0.02, "seed": 5, "alpha": 2.0, "p": 0.1},
  {"name": "sg", "city": "SG", "scale": 0.02, "seed": 7, "alpha": 2.0, "p": 0.1}
]`
	if err := os.WriteFile(specs, []byte(fleet), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	ready := make(chan addrs, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-instances", specs, "-workers", "2"}, &buf, ready)
	}()
	var bound addrs
	select {
	case bound = <-ready:
	case err := <-done:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never came up")
	}
	base := "http://" + bound.api

	// The first spec is the default: healthz reports it.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Default   string `json:"default"`
		Instances int    `json:"instances"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Default != "nyc" || health.Instances != 2 {
		t.Errorf("healthz default=%q instances=%d, want nyc/2", health.Default, health.Instances)
	}

	// Both named instances answer, each reporting its own identity.
	for _, name := range []string{"nyc", "sg"} {
		resp, err := http.Post(base+"/solve", "application/json",
			strings.NewReader(`{"instance":"`+name+`","algorithm":"G-Order"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %s: %d: %s", name, resp.StatusCode, body)
		}
		var solved struct {
			Instance   string `json:"instance"`
			Generation uint64 `json:"generation"`
		}
		if err := json.Unmarshal(body, &solved); err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
		if solved.Instance != name || solved.Generation == 0 {
			t.Errorf("solve %s reported %q gen %d", name, solved.Instance, solved.Generation)
		}
	}

	// Hot-swap "sg" with a new seed: generation advances past both boots.
	req, err := http.NewRequest(http.MethodPut, base+"/instances/sg",
		strings.NewReader(`{"city":"SG","scale":0.02,"seed":8,"alpha":2.0,"p":0.1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload sg: %d: %s", resp.StatusCode, body)
	}
	var info struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Generation <= 2 {
		t.Errorf("reload generation %d, want above the 2 boot loads", info.Generation)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never drained")
	}
	if out := buf.String(); !strings.Contains(out, `"instance":"sg"`) {
		t.Errorf("missing instance-loaded log lines:\n%s", out)
	}
}

// TestRunServesAndDrainsOnSIGTERM boots the daemon on an ephemeral port,
// solves over HTTP, then delivers a real SIGTERM and expects a clean drain.
func TestRunServesAndDrainsOnSIGTERM(t *testing.T) {
	var buf bytes.Buffer
	ready := make(chan addrs, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-scale", "0.02", "-workers", "2"}, &buf, ready)
	}()

	var bound addrs
	select {
	case bound = <-ready:
	case err := <-done:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never came up")
	}
	base := "http://" + bound.api

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/solve", "application/json",
		strings.NewReader(`{"algorithm":"BLS","restarts":2,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d: %s", resp.StatusCode, body)
	}
	var solved struct {
		TotalRegret       float64 `json:"total_regret"`
		RestartsCompleted int     `json:"restarts_completed"`
		Truncated         bool    `json:"truncated"`
	}
	if err := json.Unmarshal(body, &solved); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	if solved.TotalRegret < 0 || solved.RestartsCompleted != 2 || solved.Truncated {
		t.Errorf("suspicious solve response: %s", body)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil (clean drain)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never drained after SIGTERM")
	}
	if out := buf.String(); !strings.Contains(out, "draining") {
		t.Errorf("missing drain log line in output:\n%s", out)
	}
	// The daemon's output is structured: every non-empty line must be a
	// JSON object (usage text from flag errors never reaches this test).
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Errorf("non-JSON log line %q: %v", line, err)
		}
	}
}

// TestRunCacheServesRepeats boots the daemon with -cache-entries and checks
// the end-to-end cache contract: a repeated identical solve is answered from
// cache with an identical result, the response says so, and the hit shows up
// in the Prometheus exposition.
func TestRunCacheServesRepeats(t *testing.T) {
	var buf bytes.Buffer
	ready := make(chan addrs, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-scale", "0.02", "-workers", "2",
			"-cache-entries", "64",
		}, &buf, ready)
	}()
	var bound addrs
	select {
	case bound = <-ready:
	case err := <-done:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never came up")
	}
	base := "http://" + bound.api

	solve := func() []byte {
		t.Helper()
		resp, err := http.Post(base+"/solve", "application/json",
			strings.NewReader(`{"algorithm":"BLS","restarts":2,"seed":3}`))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: %d: %s", resp.StatusCode, body)
		}
		return body
	}
	type result struct {
		TotalRegret float64 `json:"total_regret"`
		Evals       int64   `json:"evals"`
		Cached      bool    `json:"cached"`
	}
	var first, second result
	firstRaw := solve()
	if err := json.Unmarshal(firstRaw, &first); err != nil {
		t.Fatalf("decode %s: %v", firstRaw, err)
	}
	if first.Cached {
		t.Errorf("first solve already cached: %s", firstRaw)
	}
	secondRaw := solve()
	if err := json.Unmarshal(secondRaw, &second); err != nil {
		t.Fatalf("decode %s: %v", secondRaw, err)
	}
	if !second.Cached {
		t.Errorf("repeat solve not served from cache: %s", secondRaw)
	}
	if second.TotalRegret != first.TotalRegret || second.Evals != first.Evals {
		t.Errorf("cached result differs: %s vs %s", secondRaw, firstRaw)
	}

	// /metrics is served on the API listener too; the hit is visible there.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`mroamd_solve_cache_events_total{event="hit"} 1`,
		`mroamd_solve_cache_events_total{event="miss"} 1`,
		"mroamd_solve_cache_entries 1",
	} {
		if !strings.Contains(string(expo), want) {
			t.Errorf("/metrics missing %q:\n%s", want, expo)
		}
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never drained")
	}
}

// TestRunOpsSurface boots the daemon with a separate ops listener and
// checks every endpoint of the operational surface answers, including a
// valid Prometheus exposition that reflects served solves.
func TestRunOpsSurface(t *testing.T) {
	var buf bytes.Buffer
	ready := make(chan addrs, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-ops-addr", "127.0.0.1:0",
			"-scale", "0.02", "-workers", "2",
		}, &buf, ready)
	}()
	var bound addrs
	select {
	case bound = <-ready:
	case err := <-done:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never came up")
	}
	if bound.ops == "" {
		t.Fatal("ops listener not bound")
	}

	resp, err := http.Post("http://"+bound.api+"/solve", "application/json",
		strings.NewReader(`{"algorithm":"G-Order"}`))
	if err != nil {
		t.Fatal(err)
	}
	reqID := resp.Header.Get("X-Request-ID")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d", resp.StatusCode)
	}
	if reqID == "" {
		t.Error("solve response missing X-Request-ID header")
	}

	get := func(path string) (int, string, []byte) {
		t.Helper()
		resp, err := http.Get("http://" + bound.ops + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), body
	}

	status, ctype, body := get("/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Errorf("/metrics exposition invalid: %v\n%s", err, body)
	}
	if !strings.Contains(string(body), `mroamd_requests_total{algorithm="G-Order",model="base"} 1`) {
		t.Errorf("/metrics missing the served solve:\n%s", body)
	}

	if status, _, body := get("/debug/pprof/"); status != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("/debug/pprof/: %d, body %.60q", status, body)
	}
	if status, _, body := get("/debug/vars"); status != http.StatusOK || !strings.Contains(string(body), "memstats") {
		t.Errorf("/debug/vars: %d, body %.60q", status, body)
	}
	if status, _, body := get("/buildinfo"); status != http.StatusOK || !strings.Contains(string(body), "go") {
		t.Errorf("/buildinfo: %d, body %.60q", status, body)
	}

	// Shut down before touching buf: the daemon goroutine owns the log
	// writer until run returns.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never drained")
	}

	// The request log line carries the ID the client saw.
	if reqID != "" && !strings.Contains(buf.String(), reqID) {
		t.Errorf("request ID %s absent from logs:\n%s", reqID, buf.String())
	}
}

// TestRunAdmissionFlag boots the daemon with -admission deadline, checks
// the policy is live on /healthz and in the startup record, and that an
// unknown policy is rejected at startup.
func TestRunAdmissionFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-admission", "lifo", "-scale", "0.02"}, &buf, nil); err == nil ||
		!strings.Contains(err.Error(), "admission policy") {
		t.Fatalf("unknown admission policy accepted: %v", err)
	}

	buf.Reset()
	ready := make(chan addrs, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-scale", "0.02", "-workers", "2",
			"-admission", "deadline"}, &buf, ready)
	}()
	var bound addrs
	select {
	case bound = <-ready:
	case err := <-done:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never came up")
	}
	base := "http://" + bound.api

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Admission string `json:"admission"`
		FairShare int    `json:"fair_share"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Admission != "deadline" || health.FairShare < 1 {
		t.Errorf("healthz admission %q fair_share %d, want deadline and >= 1",
			health.Admission, health.FairShare)
	}

	// A deadline-free solve is always admitted under the deadline policy.
	resp, err = http.Post(base+"/solve", "application/json",
		strings.NewReader(`{"algorithm":"G-Order"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve under deadline policy: %d", resp.StatusCode)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never drained")
	}
	if out := buf.String(); !strings.Contains(out, `"admission":"deadline"`) {
		t.Errorf("startup record missing admission policy:\n%s", out)
	}
}
