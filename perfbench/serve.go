package main

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
)

// The served fleet: a real mroamd over loopback serving two instances,
// base and zonal on one NYC universe of 400 billboards (enough for the base
// model's lazy-greedy gain cache to switch on). The zonal cap of 40 keeps
// every zonal BLS solve to about a tenth of a second.

const (
	// churnRate is serve-churn's Poisson solve rate, about half the
	// throughput of a closed loop of nproc clients over every (algorithm,
	// model) pair on this fleet on a 2-CPU host (about 45 solves/s).
	churnRate = 22.0
	// churnPatches is how many PATCHes serve-churn sends per window: enough
	// for a p90 with ten samples beyond it.
	churnPatches = 120
)

func fleetSpecs() []catalog.Spec {
	base := catalog.Spec{Name: "base", City: "NYC", Scale: 1.0, Seed: 42, Alpha: 1.0, P: 0.1}
	zonal := base
	zonal.Name = "zonal"
	zonal.Model = &catalog.ModelSpec{Kind: "zonal", ZoneCap: 40}
	return []catalog.Spec{base, zonal}
}

// fleet is the served fleet: its spec file for the daemon and the same
// specs built in process through catalog.Build for the output checks.
type fleet struct {
	path  string
	specs []catalog.Spec
	cat   *catalog.Catalog
}

func newFleet(dir string) (*fleet, error) {
	f := &fleet{path: filepath.Join(dir, "fleet.json"), specs: fleetSpecs(), cat: catalog.New()}
	b, err := json.Marshal(f.specs)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(f.path, b, 0o644); err != nil {
		return nil, err
	}
	for _, s := range f.specs {
		if _, err := f.cat.Load(s.Name, s); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) instance(name string) *core.Instance {
	e, _ := f.cat.Get(name)
	return e.Instance
}

// session is one daemon serving the fleet.
type session struct {
	d      *daemon
	c      *client
	setupS []float64
	buildS []float64
}

// launch starts the daemon launches times, keeping the last one running;
// every launch is a set-up sample.
func launch(ctx context.Context, cfg config, f *fleet, traceStore, launches int, spans *tracer) (*session, error) {
	s := &session{}
	for i := 0; i < launches; i++ {
		d, setup, err := startDaemon(ctx, cfg.mroamd, f.path, runtime.NumCPU(), traceStore)
		if err != nil {
			return nil, err
		}
		c := newClient(d.url, runtime.NumCPU(), spans)
		build, err := fleetBuildSeconds(ctx, c)
		if err != nil {
			d.stop()
			return nil, err
		}
		s.setupS, s.buildS = append(s.setupS, setup.Seconds()), append(s.buildS, build)
		if i < launches-1 {
			c.close()
			d.stop()
			continue
		}
		s.d, s.c = d, c
	}
	return s, nil
}

// end records the daemon's peak memory and stops it.
func (s *session) end() (float64, error) {
	rss, err := peakRSSMB(s.d.pid())
	s.c.close()
	s.d.stop()
	return rss, err
}

// window is what one measured window observed.
type window struct {
	samples       []*sample
	before, after promSnapshot
	elapsed       time.Duration
	rssMB         float64
}

// measure runs drive between two /metrics scrapes.
func (s *session) measure(ctx context.Context, drive func() []*sample) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = scrape(ctx, s.c); err != nil {
		return nil, err
	}
	start := time.Now()
	w.samples = drive()
	w.elapsed = time.Since(start)
	if w.after, err = scrape(ctx, s.c); err != nil {
		return nil, err
	}
	return w, nil
}

// reportServed records the end-to-end metrics of a served window.
func reportServed(rep *report, sess *session, w *window, st loadStats) {
	rep.set("setup_s", median(append([]float64(nil), sess.setupS...)))
	rep.set("build_s", median(append([]float64(nil), sess.buildS...)))
	rep.note("setup: daemon exec to healthy /healthz, median of %d launches; build: the daemon's fleet build", len(sess.setupS))
	rep.set("peak_rss_mb", w.rssMB)
	rep.set("throughput_rps", float64(len(st.solveMS))/w.elapsed.Seconds())
	rep.setTiming("latency", st.solveMS, 950)
	rep.setTiming("server.patch", st.patchMS, 900)
}

// reportDaemonLayers records the per-layer metrics the daemon exports,
// as deltas over the window.
func reportDaemonLayers(rep *report, w *window, st loadStats) {
	dt := func(series string) float64 { return delta(w.before, w.after, series) }
	meanMS := func(family, labels string) float64 {
		return 1e3 * ratio(dt(family+"_sum"+labels), dt(family+"_count"+labels))
	}
	evals := dt("mroamd_solver_evals_total")
	rep.set("core.evals", evals)
	rep.set("core.evals_per_s", ratio(evals, dt(`mroamd_solve_phase_seconds_sum{phase="solve"}`)))
	hits := dt(`mroamd_gain_cache_events_total{event="hit"}`)
	rep.setRatio("core.celf_hit_ratio", hits, hits+dt(`mroamd_gain_cache_events_total{event="miss"}`))
	ev := func(e string) float64 { return dt(`mroamd_solve_cache_events_total{event="` + e + `"}`) }
	rep.setRatio("solvecache.hit_ratio", ev("hit"), ev("hit")+ev("miss")+ev("coalesced"))
	rep.set("solvecache.coalesced", ev("coalesced"))
	rep.set("solvecache.evicted", ev("evicted"))
	rep.set("server.admission_ms", meanMS("mroamd_solve_phase_seconds", `{phase="admission"}`))
	rep.set("server.queue_ms", meanMS("mroamd_queue_wait_seconds", ""))
	rep.set("server.solve_ms", meanMS("mroamd_solve_phase_seconds", `{phase="solve"}`))
	rep.set("server.encode_ms", meanMS("mroamd_solve_phase_seconds", `{phase="encode"}`))
	rep.set("server.unattributed_ms", median(st.unattributedMS))
	for _, r := range rejections {
		rep.set("server.rejected."+r, dt(`mroamd_requests_rejected_total{reason="`+r+`"}`))
	}
}

// reportFleetLayers times the base spec's pipeline and kernels in process
// and sweeps every (algorithm, model) pair twice.
func reportFleetLayers(rep *report, f *fleet, seed uint64, stats *solveStats) error {
	st, err := fleetStages(rep.spans, f.specs[0])
	if err != nil {
		return err
	}
	rep.set("dataset.generate_join_s", st.generateJoin.Seconds())
	rep.set("dataset.alloc_mb", st.allocMB)
	rep.set("coverage.compress_s", st.compress.Seconds())
	rep.set("coverage.corridors", float64(st.corridors))
	rep.set("coverage.list_bytes", float64(st.listBytes))
	rep.set("catalog.market_s", st.market.Seconds())
	gain, swap := kernelNS(st.inst.Universe(), seed)
	rep.set("coverage.gain_ns", gain)
	rep.set("coverage.swapdelta_ns", swap)
	r := rand.New(rand.NewPCG(seed, 0x7377656570))
	for _, a := range algorithms {
		for _, m := range models {
			for k := 0; k < 2; k++ {
				if _, _, err := stats.solve(rep.spans, "sweep", m, a, 1+r.Uint64N(1_000_000), 1, nil, f.instance(m)); err != nil {
					return err
				}
			}
		}
	}
	stats.report(rep)
	return nil
}

// replay applies the successful PATCH samples to cat in generation order
// and returns each installed generation's instance plus the patch times.
// Each patch must apply and install the generation the daemon reported.
func replay(rep *report, cat *catalog.Catalog, samples []*sample) (map[uint64]*core.Instance, []float64) {
	var ps []*sample
	for _, s := range samples {
		if s.op.patch != nil && s.err == nil {
			ps = append(ps, s)
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].generation < ps[j].generation })
	byGen := map[uint64]*core.Instance{}
	for _, e := range cat.List() {
		byGen[e.Generation] = e.Instance
	}
	var times []float64
	for _, s := range ps {
		var e *catalog.Entry
		var err error
		d := rep.spans.timed(s.op.trace, 0, "catalog.patch", func() { e, _, err = cat.Patch(s.op.patch.Instance, s.op.patch.Ops) })
		rep.check(err == nil, "replayed patch of generation %d: %v", s.generation, err)
		if err != nil {
			continue
		}
		rep.check(e.Generation == s.generation, "replayed patch installed generation %d, the daemon %d", e.Generation, s.generation)
		byGen[s.generation] = e.Instance
		times = append(times, ms(d))
	}
	return byGen, times
}
