package main

import (
	"context"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"time"
)

// The serve-churn workload: the served fleet under an open-loop Poisson
// schedule, with cached-pool solves, warm-started solves and
// advertiser-churn PATCHes side by side.

// The churn mix. Each deck of ten solves holds nine cached-pool solves
// on the zonal instance — one G-Global tuple, so a pool request misses
// only on the first request after a PATCH of that instance — and one
// warm-started BLS solve on the base instance. Keeping the costly solves
// rare leaves the daemon mostly idle, so PATCHes and cache hits rarely
// wait for a connection and their latency is their own.
const (
	churnPoolSeed = 1
	deckPlain     = 9
	deckSize      = 10
	// finalSeed is the search seed of the primes and the closing warm solves.
	finalSeed = 7
)

// churnSchedule draws the window's ops from the seed. Solve arrivals are
// a Poisson process conditioned on its count (churnRate × window sorted
// uniform instants), so every seed offers the same load; PATCHes come at a
// fixed rate, alternating between the two instances.
func churnSchedule(seed uint64, window time.Duration, f *fleet) []op {
	r := rand.New(rand.NewPCG(seed, 0x636875726e))
	n := int(churnRate * window.Seconds())
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(r.Int64N(int64(window)))
	}
	slices.Sort(dues)
	var ops []op
	var deck []int
	for _, due := range dues {
		if len(deck) == 0 {
			deck = r.Perm(deckSize)
		}
		q := &solveRequest{Instance: "zonal", Algorithm: "G-Global", Seed: churnPoolSeed, Restarts: 1}
		if deck[0] >= deckPlain {
			q = &solveRequest{Instance: "base", Algorithm: "BLS", Seed: 1 + r.Uint64N(1_000_000), Restarts: 1, WarmStart: true}
		}
		deck = deck[1:]
		ops = append(ops, op{due: due, trace: newTraceID(), solve: q})
	}
	for k, p := range patchOps(r, f.instance("base"), churnPatches) {
		due := (time.Duration(2*k+1) * window) / (2 * churnPatches)
		ops = append(ops, op{due: due, trace: newTraceID(), patch: &patchRequest{Instance: models[k%2], Ops: p}})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// churnRun is one daemon's pass over the schedule.
type churnRun struct {
	w            *window
	prime, final []*sample
}

// runChurnWindow primes every instance with a cold solve (so warm-started
// requests have an incumbent), runs the schedule open loop, then sends one
// warm-started solve per instance on the final market.
func runChurnWindow(ctx context.Context, sess *session, sched []op) (*churnRun, error) {
	seq := func(q solveRequest) *sample {
		return sendNow(ctx, sess.c.do, op{trace: newTraceID(), solve: &q})
	}
	cr := &churnRun{}
	for _, m := range models {
		cr.prime = append(cr.prime, seq(solveRequest{Instance: m, Algorithm: "BLS", Seed: finalSeed, Restarts: 1}))
	}
	var err error
	cr.w, err = sess.measure(ctx, func() []*sample {
		return openLoop(ctx, time.Now(), sched, runtime.NumCPU(), sess.c.do)
	})
	if err != nil {
		return nil, err
	}
	for _, m := range models {
		cr.final = append(cr.final, seq(solveRequest{Instance: m, Algorithm: "BLS", Seed: finalSeed, Restarts: 2,
			WarmStart: true, IncludeAssignments: true}))
	}
	return cr, nil
}

func runServeChurn(ctx context.Context, cfg config, rep *report) error {
	f, err := newFleet(cfg.outDir)
	if err != nil {
		return err
	}
	sched := churnSchedule(cfg.seed, cfg.window, f)
	launches := setupLaunches
	if cfg.traced {
		launches = 1
	}
	sess, err := launch(ctx, cfg, f, 0, launches, rep.spans)
	if err != nil {
		return err
	}
	cr, err := runChurnWindow(ctx, sess, sched)
	if err != nil {
		sess.end()
		return err
	}
	if cr.w.rssMB, err = sess.end(); err != nil {
		return err
	}
	st := summarize(cr.w.samples, rep)
	summarize(cr.prime, rep)
	summarize(cr.final, rep)
	checkLateness(rep, st.lateMS)
	reportServed(rep, sess, cr.w, st)

	// Rebuild every market generation in process by replaying the PATCHes
	// in the order the daemon installed them.
	byGen, patchTimes := replay(rep, f.cat, cr.w.samples)
	stats := newSolveStats()
	var checkS float64
	runtime.GC() // time the re-solves, not the window's garbage
	resolve := func(s *sample) (*sample, bool) {
		q := s.op.solve
		inst, ok := byGen[s.solve.Generation]
		rep.check(ok, "%s answered at generation %d, which the replay never built", q.Instance, s.solve.Generation)
		if !ok {
			return nil, false
		}
		res, d, err := stats.solve(rep.spans, s.op.trace, q.Instance, q.Algorithm, q.Seed, q.Restarts, nil, inst)
		if err != nil {
			rep.check(false, "in-process solve: %v", err)
			return nil, false
		}
		checkS += d.Seconds()
		out := &sample{solve: solveResponse{TotalRegret: res.TotalRegret, Evals: res.Evals}}
		for i := 0; i < inst.NumAdvertisers(); i++ {
			out.solve.Assignments = append(out.solve.Assignments, res.Plan.Set(i, []int{}))
		}
		return out, true
	}

	// Check 1: every cached-pool response equals an in-process solve of the
	// same tuple on the market generation it was answered at. These
	// re-solves are the workload's solve set; the closing BLS solves below
	// are checked but not timed in.
	checked := 0
	for _, s := range cr.w.samples {
		if s.err != nil || s.op.solve == nil || s.op.solve.WarmStart {
			continue
		}
		checked++
		if cold, ok := resolve(s); ok {
			rep.check(cold.solve.TotalRegret == s.solve.TotalRegret, "served %+v regret %v != in-process %v",
				*s.op.solve, s.solve.TotalRegret, cold.solve.TotalRegret)
		}
	}
	rep.set("solve_s", checkS)
	rep.note("solve set: %d cached-pool responses re-solved in process", checked)

	// Check 2: the final warm plan equals a cold solve of the final market.
	var warmEvals, coldEvals, frozen float64
	for _, s := range cr.final {
		if s.err != nil {
			continue
		}
		rep.check(s.solve.WarmStarted, "final %s solve ran cold", s.op.solve.Instance)
		cold, ok := resolve(s)
		if !ok {
			continue
		}
		rep.check(cold.solve.TotalRegret == s.solve.TotalRegret && sameSets(cold.solve.Assignments, s.solve.Assignments),
			"final warm %s plan (regret %v) != cold solve of the final market (regret %v)",
			s.op.solve.Instance, s.solve.TotalRegret, cold.solve.TotalRegret)
		warmEvals += float64(s.solve.Evals)
		coldEvals += float64(cold.solve.Evals)
		frozen += float64(s.solve.FrozenAdvertisers)
	}

	if !cfg.traced {
		return nil
	}
	reportDaemonLayers(rep, cr.w, st)
	rep.setRatio("core.warm_eval_ratio", warmEvals, coldEvals)
	rep.set("core.frozen_advertisers", frozen)
	rep.set("catalog.patch_ms", median(patchTimes))
	if err := reportFleetLayers(rep, f, cfg.seed, stats); err != nil {
		return err
	}
	traced, err := launch(ctx, cfg, f, 512, 1, rep.spans)
	if err != nil {
		return err
	}
	tcr, err := runChurnWindow(ctx, traced, sched)
	if _, endErr := traced.end(); err == nil {
		err = endErr
	}
	if err != nil {
		return err
	}
	tst := summarize(tcr.w.samples, rep)
	plain, withSpans := percentile(st.solveMS, 500), percentile(tst.solveMS, 500)
	rep.set("obs.trace_overhead_pct", (withSpans/plain-1)*100)
	rep.note("trace overhead: solve p50 %.3f ms without spans, %.3f ms with -trace-store 512", plain, withSpans)
	return nil
}

// sameSets reports whether two per-advertiser billboard assignments hold
// the same sets, whatever order each set lists its billboards in.
func sameSets(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := slices.Clone(a[i]), slices.Clone(b[i])
		slices.Sort(x)
		slices.Sort(y)
		if !slices.Equal(x, y) {
			return false
		}
	}
	return true
}
