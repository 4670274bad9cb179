package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/dataset"
)

// The paper-build workload: NYC at the paper's scale (Table 5: 1.7M
// trajectories, 1462 billboards), built and solved in a worker process so
// its peak memory is its own. The instance is the paper's reference
// instance (dataset seed 42), whose corridor count and regret are known;
// the workload seed drives the solve set's search seeds and the churn
// sequence.

const (
	paperDatasetSeed = 42
	paperCorridors   = 79765
	// paperRegret is the reference BLS (seed 42, one restart) regret; the
	// greedy solvers reach the same regret on this instance.
	paperRegret = 79967429.21035554
	// paperPatches is the length of the in-process churn replay.
	paperPatches = 2000
	// setupLaunches is how many times a run measures set-up; it reports
	// the median.
	setupLaunches = 9
)

// paperSolve is one solve of the set.
type paperSolve struct {
	Alg       string  `json:"alg"`
	Seed      uint64  `json:"seed"`
	MS        float64 `json:"ms"`
	Regret    float64 `json:"regret"`
	Invalid   string  `json:"invalid,omitempty"`
	Reference bool    `json:"reference,omitempty"`
}

// workerResult is what the worker reports to the driver.
type workerResult struct {
	GenerateJoinS float64      `json:"generate_join_s"`
	CompressS     float64      `json:"compress_s"`
	MarketS       float64      `json:"market_s"`
	AllocMB       float64      `json:"alloc_mb"`
	Corridors     int          `json:"corridors"`
	ListBytes     int64        `json:"list_bytes"`
	Solves        []paperSolve `json:"solves"`
	PatchMS       []float64    `json:"patch_ms"`
	PatchErr      string       `json:"patch_err,omitempty"`
	PeakRSSMB     float64      `json:"peak_rss_mb"`

	// Traced run only.
	GainNS     float64            `json:"gain_ns"`
	SwapNS     float64            `json:"swap_ns"`
	RestartMS  float64            `json:"restart_ms"`
	Evals      int64              `json:"evals"`
	BusyS      float64            `json:"busy_s"`
	CelfHits   int64              `json:"celf_hits"`
	CelfMisses int64              `json:"celf_misses"`
	WarmEvals  int64              `json:"warm_evals"`
	ColdEvals  int64              `json:"cold_evals"`
	Frozen     int                `json:"frozen"`
	SolveMS    map[string]float64 `json:"solve_ms"`
	Spans      []span             `json:"spans"`
}

func runPaperBuild(ctx context.Context, cfg config, rep *report) error {
	var setups []float64
	for i := 0; i < setupLaunches-1; i++ {
		w, err := launchWorker(ctx, cfg, true)
		if err != nil {
			return err
		}
		setups = append(setups, w.setup.Seconds())
		if err := w.finish(nil); err != nil {
			return err
		}
	}
	w, err := launchWorker(ctx, cfg, false)
	if err != nil {
		return err
	}
	setups = append(setups, w.setup.Seconds())
	var res workerResult
	if err := w.finish(&res); err != nil {
		return err
	}
	rep.set("setup_s", median(setups))
	rep.note("setup: worker exec to ready, median of %d launches", len(setups))

	rep.tally.record(nil) // the build
	rep.set("build_s", res.GenerateJoinS+res.CompressS+res.MarketS)
	rep.note("build: generate+join %.3fs, compress %.3fs, market %.6fs, %d corridors",
		res.GenerateJoinS, res.CompressS, res.MarketS, res.Corridors)
	rep.check(res.Corridors == paperCorridors, "corridors %d != reference %d", res.Corridors, paperCorridors)

	var solveMS []float64
	var total float64
	greedyRegret := 0.0
	for _, s := range res.Solves {
		rep.tally.record(nil)
		solveMS = append(solveMS, s.MS)
		total += s.MS / 1e3
		rep.note("solve %s seed %d: %.1f ms, regret %.8f", s.Alg, s.Seed, s.MS, s.Regret)
		rep.check(s.Invalid == "", "%s seed %d: invalid plan: %s", s.Alg, s.Seed, s.Invalid)
		switch {
		case s.Reference || s.Alg == "G-Order" || s.Alg == "G-Global":
			rep.check(s.Regret == paperRegret, "%s seed %d: regret %v != reference %v", s.Alg, s.Seed, s.Regret, paperRegret)
			if s.Alg == "G-Global" {
				greedyRegret = s.Regret
			}
		default:
			// Local search descends from the synchronous greedy plan and
			// never accepts a worse one.
			rep.check(s.Regret <= greedyRegret, "%s seed %d: regret %v above the G-Global plan's %v", s.Alg, s.Seed, s.Regret, greedyRegret)
		}
	}
	rep.set("solve_s", total)
	rep.set("throughput_rps", float64(len(solveMS))/total)
	// The solve set is a handful of solves, so these percentiles describe
	// the set itself, not a tail; the served workloads report tails.
	rep.note("latency: nearest-rank percentiles over the %d-solve set (not a tail)", len(solveMS))
	rep.set("latency_p50_ms", percentile(solveMS, 500))
	rep.set("latency_p95_ms", percentile(solveMS, 950))

	for range res.PatchMS {
		rep.tally.record(nil)
	}
	if res.PatchErr != "" {
		rep.tally.record(fmt.Errorf("patch: %s", res.PatchErr))
	}
	rep.set("peak_rss_mb", res.PeakRSSMB)

	rep.set("dataset.generate_join_s", res.GenerateJoinS)
	rep.set("dataset.alloc_mb", res.AllocMB)
	rep.set("coverage.compress_s", res.CompressS)
	rep.set("coverage.corridors", float64(res.Corridors))
	rep.set("coverage.list_bytes", float64(res.ListBytes))
	rep.set("coverage.gain_ns", res.GainNS)
	rep.set("coverage.swapdelta_ns", res.SwapNS)
	rep.set("catalog.market_s", res.MarketS)
	rep.set("catalog.patch_ms", median(res.PatchMS))
	for _, a := range algorithms {
		for _, m := range models {
			rep.set(fmt.Sprintf("core.solve_ms.%s.%s", a, m), res.SolveMS[a+"."+m])
		}
	}
	rep.set("core.evals", float64(res.Evals))
	rep.set("core.evals_per_s", ratio(float64(res.Evals), res.BusyS))
	rep.set("core.restart_ms", res.RestartMS)
	rep.setRatio("core.celf_hit_ratio", float64(res.CelfHits), float64(res.CelfHits+res.CelfMisses))
	rep.setRatio("core.warm_eval_ratio", float64(res.WarmEvals), float64(res.ColdEvals))
	rep.set("core.frozen_advertisers", float64(res.Frozen))
	// No daemon runs in this workload: the solve cache, the server and
	// span tracing in the daemon are not exercised and read 0.
	rep.setRatio("solvecache.hit_ratio", 0, 0)
	for _, n := range []string{"solvecache.coalesced", "solvecache.evicted", "server.admission_ms",
		"server.queue_ms", "server.solve_ms", "server.encode_ms", "server.unattributed_ms",
		"server.patch_p50_ms", "server.patch_p90_ms", "obs.trace_overhead_pct"} {
		rep.set(n, 0)
	}
	for _, r := range rejections {
		rep.set("server.rejected."+r, 0)
	}
	if rep.spans != nil {
		for _, s := range res.Spans {
			rep.spans.add(s.Trace, s.Parent, s.Name, rep.spans.t0.Add(time.Duration(s.Start)), rep.spans.t0.Add(time.Duration(s.End)))
		}
	}
	return nil
}

// worker is a launched paper-build worker process.
type worker struct {
	cmd   *exec.Cmd
	out   *bufio.Reader
	setup time.Duration
}

// launchWorker execs the worker and waits for its ready line; the time
// from exec to ready is the workload's set-up.
func launchWorker(ctx context.Context, cfg config, probe bool) (*worker, error) {
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	args := []string{"-worker", "paper-build", "-seed", strconv.FormatUint(cfg.seed, 10), "-trace", trace}
	if probe {
		args = append(args, "-probe")
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, cfg.self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start worker: %w", err)
	}
	w := &worker{cmd: cmd, out: bufio.NewReaderSize(stdout, 1<<20)}
	line, err := w.out.ReadString('\n')
	if err != nil || line != "ready\n" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("worker did not report ready (%q): %v", line, err)
	}
	w.setup = time.Since(start)
	return w, nil
}

// finish reads the worker's result (when res is non-nil) and waits for
// the process to end.
func (w *worker) finish(res *workerResult) error {
	var decodeErr error
	if res != nil {
		decodeErr = json.NewDecoder(w.out).Decode(res)
	}
	_, _ = io.Copy(io.Discard, w.out)
	if err := w.cmd.Wait(); err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	if decodeErr != nil {
		return fmt.Errorf("worker result: %w", decodeErr)
	}
	return nil
}

// runWorker is the worker process: it builds the paper instance, runs the
// solve set and the churn replay, and prints its result as one JSON line.
func runWorker(out io.Writer, seed uint64, traced, probe bool) error {
	if _, err := io.WriteString(out, "ready\n"); err != nil || probe {
		return err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	spec := catalog.Spec{Tier: catalog.TierScale, Seed: paperDatasetSeed}.Normalized()
	st, err := buildStages(tr, "paper.build", func() (*coverage.Universe, error) {
		s, err := dataset.GenerateUniverse(dataset.PaperNYC(paperDatasetSeed), dataset.StreamOptions{Lambda: spec.Lambda})
		if err != nil {
			return nil, err
		}
		return s.Universe, nil
	}, spec)
	if err != nil {
		return err
	}
	res := workerResult{
		GenerateJoinS: st.generateJoin.Seconds(),
		CompressS:     st.compress.Seconds(),
		MarketS:       st.market.Seconds(),
		AllocMB:       st.allocMB,
		Corridors:     st.corridors,
		ListBytes:     st.listBytes,
	}

	// The solve set: both greedy solvers, ALS and BLS at seeds drawn from
	// the workload seed, and the reference BLS solve.
	r := rand.New(rand.NewPCG(seed, 0x7061706572))
	type job struct {
		alg  string
		seed uint64
		ref  bool
	}
	jobs := []job{{"G-Order", 0, false}, {"G-Global", 0, false},
		{"ALS", 1 + r.Uint64N(1_000_000), false}, {"BLS", 1 + r.Uint64N(1_000_000), false},
		{"BLS", paperDatasetSeed, true}}
	// The build leaves gigabytes of garbage; collect it before timing the
	// solves so they do not pay for it at a point that varies run to run.
	runtime.GC()
	stats := newSolveStats()
	var refPlan *core.Plan
	for _, j := range jobs {
		a, d, err := stats.solve(tr, "paper.solve", "base", j.alg, j.seed, 1, nil, st.inst)
		if err != nil {
			return err
		}
		ps := paperSolve{Alg: j.alg, Seed: j.seed, MS: ms(d), Regret: a.TotalRegret, Reference: j.ref}
		if err := a.Plan.Validate(); err != nil {
			ps.Invalid = err.Error()
		}
		res.Solves = append(res.Solves, ps)
		if j.ref {
			refPlan = a.Plan
		}
	}

	// The churn replay: remove+add patches through catalog.Patch, carrying
	// the reference plan along as a warm-start incumbent.
	cat := catalog.New()
	if _, err := cat.AddInstance("paper", st.inst); err != nil {
		return err
	}
	sets := make([][]int, st.inst.NumAdvertisers())
	for i := range sets {
		sets[i] = refPlan.Set(i, nil)
	}
	dirty := make([]bool, len(sets))
	var final *catalog.Entry
	runtime.GC() // as before the solves: time the patches, not the solves' garbage
	for _, ops := range patchOps(r, st.inst, paperPatches) {
		var pr catalog.PatchResult
		var err error
		d := tr.timed("paper.patch", 0, "catalog.patch", func() { final, pr, err = cat.Patch("paper", ops) })
		if err != nil {
			res.PatchErr = err.Error()
			break
		}
		res.PatchMS = append(res.PatchMS, ms(d))
		sets, dirty = remapIncumbent(sets, dirty, pr)
	}

	if traced && final != nil {
		res.GainNS, res.SwapNS = kernelNS(st.inst.Universe(), seed)
		warmSeed := 1 + r.Uint64N(1_000_000)
		ws := &core.WarmStart{Sets: sets, Dirty: dirty, FreedSupply: true}
		warm, _, err := stats.solve(tr, "paper.warm", "base", "BLS", warmSeed, 1, ws, final.Instance)
		if err != nil {
			return err
		}
		cold, _, err := stats.solve(tr, "paper.warm", "base", "BLS", warmSeed, 1, nil, final.Instance)
		if err != nil {
			return err
		}
		res.WarmEvals, res.ColdEvals, res.Frozen = warm.Evals, cold.Evals, warm.FrozenAdvertisers
		res.Evals, res.BusyS = stats.evals, stats.busy.Seconds()
		res.CelfHits, res.CelfMisses = stats.cache.Hits, stats.cache.Misses
		res.RestartMS = median(stats.restartMS)
		res.SolveMS = map[string]float64{}
		for k, v := range stats.byCombo {
			res.SolveMS[k] = median(v)
		}
		res.Spans = tr.spans
	}
	if res.PeakRSSMB, err = peakRSSMB("self"); err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(res)
}

// remapIncumbent carries per-advertiser incumbent sets across one patch,
// the way mroamd carries its stored plans: survivors keep their sets and
// dirt, added advertisers start empty and dirty.
func remapIncumbent(sets [][]int, dirty []bool, pr catalog.PatchResult) ([][]int, []bool) {
	ns := make([][]int, len(pr.OldIndexOf))
	nd := make([]bool, len(pr.OldIndexOf))
	for j, oi := range pr.OldIndexOf {
		nd[j] = pr.Dirty[j]
		if oi < 0 {
			nd[j] = true
			continue
		}
		ns[j], nd[j] = sets[oi], nd[j] || dirty[oi]
	}
	return ns, nd
}
