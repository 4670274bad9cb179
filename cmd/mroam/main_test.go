package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI executes the CLI entry point with the given args and returns its
// stdout; fatal on unexpected error.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v\noutput:\n%s", args, err, sb.String())
	}
	return sb.String()
}

func TestNoArgs(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Fatal("no subcommand accepted")
	}
	if !strings.Contains(sb.String(), "subcommands") {
		t.Error("usage not printed")
	}
}

func TestUnknownSubcommand(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"frobnicate"}, &sb); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

func TestHelp(t *testing.T) {
	out := runCLI(t, "help")
	for _, want := range []string{"gen", "stats", "solve", "exp", "sim", "gap"} {
		if !strings.Contains(out, want) {
			t.Errorf("help missing %q", want)
		}
	}
}

func TestGenAndSolveFromData(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nyc")
	out := runCLI(t, "gen", "-city", "NYC", "-scale", "0.02", "-seed", "5", "-out", dir)
	if !strings.Contains(out, "wrote") || !strings.Contains(out, "|T|=800") {
		t.Errorf("gen output: %s", out)
	}
	if !strings.Contains(out, "corridors") || !strings.Contains(out, "compression") {
		t.Errorf("gen output missing corridor report: %s", out)
	}
	out = runCLI(t, "solve", "-data", dir, "-alg", "G-Global", "-p", "0.2", "-alpha", "0.8")
	for _, want := range []string{"G-Global on NYC", "total regret", "satisfied"} {
		if !strings.Contains(out, want) {
			t.Errorf("solve output missing %q:\n%s", want, out)
		}
	}
}

// TestSolveTrace: -trace must emit a JSONL trajectory whose improved
// events are strictly decreasing in regret and non-decreasing in time,
// bracketed by a start header and a done record that matches the printed
// summary — and tracing must not change the solve result.
func TestSolveTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	base := runCLI(t, "solve", "-scale", "0.02", "-alg", "BLS", "-restarts", "4", "-workers", "4", "-seed", "7")
	out := runCLI(t, "solve", "-scale", "0.02", "-alg", "BLS", "-restarts", "4", "-workers", "4", "-seed", "7",
		"-trace", tracePath)
	if !strings.Contains(out, "trace:") {
		t.Errorf("summary missing trace line:\n%s", out)
	}
	// The traced run must report the identical regret line.
	baseRegret := regretLine(t, base)
	if got := regretLine(t, out); got != baseRegret {
		t.Errorf("tracing changed the result: %q vs %q", got, baseRegret)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 3 {
		t.Fatalf("trace has %d lines, want at least start + events + done:\n%s", len(lines), raw)
	}
	type event struct {
		Event     string   `json:"event"`
		TMS       *float64 `json:"t_ms"`
		Regret    *float64 `json:"regret"`
		Evals     *int64   `json:"evals"`
		Algorithm string   `json:"algorithm"`
		Restarts  *int     `json:"restarts"`
		Truncated *bool    `json:"truncated"`
	}
	var events []event
	for _, line := range lines {
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if first := events[0]; first.Event != "start" || first.Algorithm != "BLS" || first.Restarts == nil || *first.Restarts != 4 {
		t.Errorf("bad start record: %+v", first)
	}
	last := events[len(events)-1]
	if last.Event != "done" || last.Regret == nil || last.Evals == nil || *last.Evals <= 0 || last.Truncated == nil || *last.Truncated {
		t.Errorf("bad done record: %+v", last)
	}
	// The improved trajectory is monotone: strictly decreasing regret,
	// non-decreasing time, ending at the done record's final regret.
	var lastRegret, lastT float64
	improvements := 0
	restartDones := 0
	for _, ev := range events {
		switch ev.Event {
		case "improved":
			if improvements > 0 && (*ev.Regret >= lastRegret || *ev.TMS < lastT) {
				t.Errorf("non-monotone improvement: %+v after regret=%v t=%v", ev, lastRegret, lastT)
			}
			lastRegret, lastT = *ev.Regret, *ev.TMS
			improvements++
		case "restart_done":
			restartDones++
		}
	}
	if improvements == 0 {
		t.Error("trace has no improved events")
	}
	if restartDones != 5 { // greedy slot 0 + 4 restarts
		t.Errorf("trace has %d restart_done events, want 5", restartDones)
	}
	if lastRegret != *last.Regret {
		t.Errorf("final improvement %v != done regret %v", lastRegret, *last.Regret)
	}
}

// regretLine extracts the "total regret" summary line.
func regretLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "total regret") {
			return strings.TrimSpace(line)
		}
	}
	t.Fatalf("no regret line in output:\n%s", out)
	return ""
}

func TestGenRequiresOut(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"gen"}, &sb); err == nil {
		t.Fatal("gen without -out accepted")
	}
}

func TestGenRejectsBadCity(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"gen", "-city", "Atlantis", "-out", t.TempDir()}, &sb); err == nil {
		t.Fatal("bad city accepted")
	}
}

func TestStats(t *testing.T) {
	out := runCLI(t, "stats", "-scale", "0.02", "-seed", "3")
	for _, want := range []string{"Table 5", "NYC", "SG", "Figure 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q", want)
		}
	}
}

func TestSolveBadAlgorithm(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"solve", "-scale", "0.02", "-alg", "Simplex"}, &sb)
	if err == nil {
		t.Fatal("bad algorithm accepted")
	}
	// The error must name the valid choices and map to a failing exit.
	for _, want := range []string{"Simplex", "G-Order", "G-Global", "ALS", "BLS"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-algorithm error %q missing %q", err, want)
		}
	}
	if exitCode(err) != 1 {
		t.Errorf("exitCode(%v) = %d, want 1", err, exitCode(err))
	}
}

// TestExitCodes pins the process exit status contract: asking for help is
// a success, every real error a failure.
func TestExitCodes(t *testing.T) {
	if got := exitCode(nil); got != 0 {
		t.Errorf("exitCode(nil) = %d, want 0", got)
	}
	// -h on a subcommand surfaces flag.ErrHelp and must exit 0, with the
	// usage text on the subcommand's output.
	var sb strings.Builder
	err := run([]string{"solve", "-h"}, &sb)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("solve -h returned %v, want flag.ErrHelp", err)
	}
	if got := exitCode(err); got != 0 {
		t.Errorf("exitCode(solve -h) = %d, want 0", got)
	}
	if !strings.Contains(sb.String(), "-alg") {
		t.Errorf("solve -h did not print flag usage:\n%s", sb.String())
	}
	// Unknown subcommands and flag typos are failures.
	if err := run([]string{"frobnicate"}, &strings.Builder{}); exitCode(err) != 1 {
		t.Errorf("exitCode(unknown subcommand) = %d, want 1", exitCode(err))
	}
	if err := run([]string{"solve", "-no-such-flag"}, &strings.Builder{}); exitCode(err) != 1 {
		t.Errorf("exitCode(bad flag) = %d, want 1", exitCode(err))
	}
}

// TestSolveRejectsNonFiniteFlags: flag.Float64 parses NaN and Inf; the
// spec check must turn them into an error, not a crash or a degenerate
// instance.
func TestSolveRejectsNonFiniteFlags(t *testing.T) {
	for _, args := range [][]string{
		{"solve", "-scale", "0.01", "-lambda", "NaN"},
		{"solve", "-scale", "Inf"},
		{"plan", "-scale", "0.01", "-alpha", "NaN"},
	} {
		err := run(args, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("%v: %v, want a finiteness error", args, err)
		}
	}
}

func TestExpSingleFigure(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "out.csv")
	out := runCLI(t, "exp", "-fig", "4", "-scale", "0.02", "-restarts", "1", "-csv", csv)
	for _, want := range []string{"fig4", "α=40%", "α=120%", "BLS"} {
		if !strings.Contains(out, want) {
			t.Errorf("exp output missing %q", want)
		}
	}
}

func TestExpRequiresFigOrAll(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"exp"}, &sb); err == nil {
		t.Fatal("exp without -fig/-all accepted")
	}
	if err := run([]string{"exp", "-fig", "99"}, &sb); err == nil {
		t.Fatal("out-of-range figure accepted")
	}
}

func TestSim(t *testing.T) {
	out := runCLI(t, "sim", "-scale", "0.03", "-days", "5", "-restarts", "1")
	for _, want := range []string{"rolling market", "G-Order", "BLS", "revenue"} {
		if !strings.Contains(out, want) {
			t.Errorf("sim output missing %q:\n%s", want, out)
		}
	}
}

func TestGap(t *testing.T) {
	out := runCLI(t, "gap", "-instances", "3", "-billboards", "6", "-restarts", "1")
	if !strings.Contains(out, "approximation gap") || !strings.Contains(out, "BLS") {
		t.Errorf("gap output:\n%s", out)
	}
	md := runCLI(t, "gap", "-instances", "3", "-billboards", "6", "-restarts", "1", "-md")
	if !strings.Contains(md, "| algorithm |") {
		t.Errorf("gap -md output:\n%s", md)
	}
}

func TestPlanSubcommand(t *testing.T) {
	planPath := filepath.Join(t.TempDir(), "plan.json")
	out := runCLI(t, "plan", "-scale", "0.03", "-restarts", "1", "-top", "3", "-out", planPath)
	for _, want := range []string{"plan written", "regret", "lower bound", "advertiser"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q:\n%s", want, out)
		}
	}
	if _, err := runCLIErr("plan", "-alg", "Nope"); err == nil {
		t.Error("bad algorithm accepted")
	}
}

// TestLambdaFlagChangesResults: the influence radius λ is exposed on sim
// and plan, and widening it must change the computed numbers — otherwise
// the flag is plumbed but dead.
func TestLambdaFlagChangesResults(t *testing.T) {
	base := runCLI(t, "plan", "-scale", "0.03", "-restarts", "1", "-seed", "11")
	wide := runCLI(t, "plan", "-scale", "0.03", "-restarts", "1", "-seed", "11", "-lambda", "250")
	if base == wide {
		t.Errorf("plan output identical for λ=100m and λ=250m:\n%s", base)
	}
	// The same invocation is deterministic, so the only moving part above
	// is λ itself.
	if again := runCLI(t, "plan", "-scale", "0.03", "-restarts", "1", "-seed", "11"); again != base {
		t.Error("plan output not deterministic across runs")
	}

	simBase := runCLI(t, "sim", "-scale", "0.03", "-days", "3", "-restarts", "1")
	simWide := runCLI(t, "sim", "-scale", "0.03", "-days", "3", "-restarts", "1", "-lambda", "250")
	if simBase == simWide {
		t.Errorf("sim output identical for λ=100m and λ=250m:\n%s", simBase)
	}
}

// runCLIErr runs the CLI expecting a possible error.
func runCLIErr(args ...string) (string, error) {
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

func TestExpSVGOutput(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "svg")
	runCLI(t, "exp", "-fig", "4", "-scale", "0.02", "-restarts", "1", "-svg", dir)
	data, err := os.ReadFile(filepath.Join(dir, "fig4.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Fatal("svg file malformed")
	}
}
