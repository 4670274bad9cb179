// Command perfbench is the repository benchmark. It runs one named workload
// at one seed, checks the program's outputs, and prints every metric by
// name with its unit; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.py builds this binary and mroamd):
//
//	python3 perfbench/run.py --workload paper-build --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	paper-build  NYC at paper scale, in process: build, solve set, patches
//	serve-churn  mroamd over loopback, open loop, cache hits, warm solves, PATCHes
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics, measured in a separate run that also
// records spans around every call into a layer and writes them out as
// JSONL when the run ends.
//
// The exit code is 0 for a correct run, 1 when an output check or an
// operation failed (the result line is still printed), and 2 when the
// benchmark could not run at all (no result line).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric, its unit and which direction is better. The
// lists below are the contract with BENCHMARK.json (stats_test.go keeps
// the two in step).
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user sees, reported by every workload with
// -trace 0. README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"build_s", "s", "lower"},
	{"solve_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
}

// algorithms and models span the solve mix: every paper solver on the base
// MROAM model and on the zonal variant.
var (
	algorithms = []string{"G-Order", "G-Global", "ALS", "BLS"}
	models     = []string{"base", "zonal"}
	rejections = []string{"capacity", "deadline_infeasible", "fairness"}
)

// perLayer are the metrics of single layers, keyed by module name and
// reported with -trace 1. Every ratio is followed by its base.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"dataset.generate_join_s", "s", "lower"},
		{"dataset.alloc_mb", "MB", "lower"},
		{"coverage.compress_s", "s", "lower"},
		{"coverage.corridors", "count", "lower"},
		{"coverage.list_bytes", "bytes", "lower"},
		{"coverage.gain_ns", "ns", "lower"},
		{"coverage.swapdelta_ns", "ns", "lower"},
		{"catalog.market_s", "s", "lower"},
		{"catalog.patch_ms", "ms", "lower"},
	}
	for _, a := range algorithms {
		for _, m := range models {
			defs = append(defs, metricDef{"core.solve_ms." + a + "." + m, "ms", "lower"})
		}
	}
	defs = append(defs,
		metricDef{"core.evals", "count", "lower"},
		metricDef{"core.evals_per_s", "1/s", "higher"},
		metricDef{"core.restart_ms", "ms", "lower"},
		metricDef{"core.celf_hit_ratio", "ratio", "higher"},
		metricDef{"core.celf_hit_ratio.base", "count", "higher"},
		metricDef{"core.warm_eval_ratio", "ratio", "lower"},
		metricDef{"core.warm_eval_ratio.base", "count", "higher"},
		metricDef{"core.frozen_advertisers", "count", "higher"},
		metricDef{"solvecache.hit_ratio", "ratio", "higher"},
		metricDef{"solvecache.hit_ratio.base", "count", "higher"},
		metricDef{"solvecache.coalesced", "count", "higher"},
		metricDef{"solvecache.evicted", "count", "lower"},
		metricDef{"server.admission_ms", "ms", "lower"},
		metricDef{"server.queue_ms", "ms", "lower"},
		metricDef{"server.solve_ms", "ms", "lower"},
		metricDef{"server.encode_ms", "ms", "lower"},
		metricDef{"server.unattributed_ms", "ms", "lower"},
		metricDef{"server.patch_p50_ms", "ms", "lower"},
		metricDef{"server.patch_p90_ms", "ms", "lower"},
	)
	for _, r := range rejections {
		defs = append(defs, metricDef{"server.rejected." + r, "count", "lower"})
	}
	return append(defs, metricDef{"obs.trace_overhead_pct", "%", "lower"})
}()

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	mroamd   string // daemon binary, built by run.py
	outDir   string // scratch directory inside the checkout
	self     string // this binary, re-executed as the paper-build worker
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics, notes and failure tally.
type report struct {
	metrics map[string]metric
	notes   []string
	tally   tally
	spans   *tracer
}

func newReport(traced bool) *report {
	r := &report{metrics: map[string]metric{}}
	if traced {
		r.spans = newTracer()
	}
	return r
}

// set records a metric declared in endToEnd or perLayer.
func (r *report) set(name string, v float64) {
	def, ok := lookupMetric(name)
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: def.unit}
}

// setRatio records a ratio together with its base.
func (r *report) setRatio(name string, num, base float64) {
	r.set(name, ratio(num, base))
	r.set(name+".base", base)
}

// note adds one human-readable line to the output.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one output check: a failed check counts as a failed
// operation and is noted.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		r.tally.record(nil)
		return
	}
	err := fmt.Errorf("check failed: "+format, args...)
	r.note("%v", err)
	r.tally.record(err)
}

// setTiming records a latency sample as its median and the named tail
// percentile, noting the sample count and the highest percentile the
// sample supports. A sample too small for the named percentile fails the
// run: the benchmark would otherwise report a tail it never observed.
func (r *report) setTiming(prefix string, xs []float64, tailPM int) {
	n := len(xs)
	hs := highestSupported(n)
	r.note("%s: n=%d samples, highest supported percentile p%g", prefix, n, float64(hs)/10)
	r.check(hs >= tailPM, "%s: %d samples do not support p%g (need %d beyond it)", prefix, n, float64(tailPM)/10, minBeyond)
	r.set(fmt.Sprintf("%s_p50_ms", prefix), percentile(xs, 500))
	r.set(fmt.Sprintf("%s_p%d_ms", prefix, tailPM/10), percentile(xs, tailPM))
}

func lookupMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: paper-build or serve-churn")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics with spans")
	mroamd := fs.String("mroamd", "", "path of the mroamd binary")
	outDir := fs.String("out", ".bench_build/run", "directory for fleet files and span dumps")
	worker := fs.String("worker", "", "internal: run as the paper-build worker process")
	probe := fs.Bool("probe", false, "internal: worker prints ready and exits (set-up timing)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *worker != "" {
		if err := runWorker(os.Stdout, *seed, *trace == 1, *probe); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(2)
		}
		return
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		mroamd:   *mroamd,
		outDir:   *outDir,
		self:     self,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	correct, err := run(ctx, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// run executes the workload and prints its result. It returns an error,
// with nothing printed, when the workload could not produce a result.
func run(ctx context.Context, cfg config, out io.Writer) (bool, error) {
	if cfg.window <= 0 {
		return false, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return false, err
	}
	rep := newReport(cfg.traced)
	var err error
	switch cfg.workload {
	case "paper-build":
		err = runPaperBuild(ctx, cfg, rep)
	case "serve-churn":
		err = runServeChurn(ctx, cfg, rep)
	default:
		err = fmt.Errorf("unknown -workload %q (want paper-build or serve-churn)", cfg.workload)
	}
	if err != nil {
		return false, err
	}
	want := endToEnd
	if cfg.traced {
		want = perLayer
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: rep.tally.attempted, Failed: rep.tally.failed, Metrics: map[string]metric{}}
	for _, d := range want {
		m, ok := rep.metrics[d.name]
		if !ok {
			return false, fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		res.Metrics[d.name] = m
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	host := hostFacts()
	if cfg.traced {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := rep.spans.write(path, host); err != nil {
			return false, err
		}
		rep.note("spans: %d written to %s", rep.spans.len(), path)
	}
	hostLine, err := json.Marshal(map[string]any{"host": host, "workload": cfg.workload, "seed": cfg.seed})
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, string(hostLine))
	for _, n := range rep.notes {
		fmt.Fprintln(out, n)
	}
	fmt.Fprintf(out, "fail_ratio = %d/%d = %g (base: %d attempted operations and checks)\n",
		rep.tally.failed, rep.tally.attempted, rep.tally.failRatio(), rep.tally.attempted)
	if rep.tally.firstErr != "" {
		fmt.Fprintln(out, "first failure:", rep.tally.firstErr)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-34s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	last, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, string(last))
	return res.Correct, nil
}

// hostFacts stamps a result with the machine and source it measured.
func hostFacts() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     sourceID(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}
