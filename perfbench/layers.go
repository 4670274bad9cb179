package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/market"
	"repro/internal/rng"
)

// In-process measurements of single layers, timed around calls into each
// layer's public functions.

// stages is the instance pipeline timed layer by layer.
type stages struct {
	generateJoin, compress, market time.Duration
	allocMB                        float64
	corridors                      int
	listBytes                      int64
	inst                           *core.Instance
}

// buildStages runs generate+join (gen), corridor compression and the market,
// each inside a span, recording the bytes gen allocates.
func buildStages(tr *tracer, trace string, gen func() (*coverage.Universe, error), s catalog.Spec) (stages, error) {
	s = s.Normalized()
	var st stages
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var u *coverage.Universe
	var err error
	st.generateJoin = tr.timed(trace, 0, "dataset.generate_join", func() { u, err = gen() })
	if err != nil {
		return st, err
	}
	runtime.ReadMemStats(&after)
	st.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)

	var cu *coverage.Universe
	var cs coverage.CompressionStats
	st.compress = tr.timed(trace, 0, "coverage.compress", func() { cu, cs = coverage.Compress(u) })
	st.corridors = cs.Corridors
	for b := 0; b < cu.NumBillboards(); b++ {
		st.listBytes += 4 * int64(len(cu.List(b)))
	}
	st.market = tr.timed(trace, 0, "catalog.market", func() {
		st.inst, err = catalog.Market(cu, market.Config{Alpha: s.Alpha, P: s.P}, *s.Gamma, rng.New(s.Seed).Derive("market"))
	})
	return st, err
}

// fleetStages builds a default-tier spec stage by stage, the same pipeline
// catalog.Build runs.
func fleetStages(tr *tracer, s catalog.Spec) (stages, error) {
	s = s.Normalized()
	return buildStages(tr, "build."+s.Name, func() (*coverage.Universe, error) {
		d, err := catalog.BuildDataset(s)
		if err != nil {
			return nil, err
		}
		return d.BuildUniverse(s.Lambda)
	}, s)
}

// kernelSink keeps the timed kernel calls from being optimized away.
var kernelSink int

// kernelNS times the public coverage.Counter kernels on a built universe:
// Gain over every non-member and SwapDelta over member × non-member pairs,
// against a counter holding a seeded 5% of the billboards. It returns ns
// per call.
func kernelNS(u *coverage.Universe, seed uint64) (gainNS, swapNS float64) {
	r := rand.New(rand.NewPCG(seed, 0x6b65726e656c))
	nb := u.NumBillboards()
	perm := r.Perm(nb)
	k := nb/20 + 1
	members, others := perm[:k], perm[k:]
	c := coverage.NewCounter(u)
	for _, b := range members {
		c.Add(b)
	}
	const budget = 200 * time.Millisecond
	calls, start := 0, time.Now()
	for time.Since(start) < budget {
		for _, b := range others {
			kernelSink += c.Gain(b)
		}
		calls += len(others)
	}
	gainNS = float64(time.Since(start).Nanoseconds()) / float64(calls)
	calls, start = 0, time.Now()
	for time.Since(start) < budget {
		for i, b := range others {
			kernelSink += c.SwapDelta(members[i%len(members)], b)
		}
		calls += len(others)
	}
	swapNS = float64(time.Since(start).Nanoseconds()) / float64(calls)
	return gainNS, swapNS
}

// solveStats accumulates in-process solves.
type solveStats struct {
	mu        sync.Mutex
	restartMS []float64
	evals     int64
	busy      time.Duration
	cache     core.CacheStats
	byCombo   map[string][]float64 // "alg.model" -> solve ms
}

func newSolveStats() *solveStats { return &solveStats{byCombo: map[string][]float64{}} }

// solve runs one solve the way mroamd does (serial search, no deadline),
// timing its restarts through a core.Tracer.
func (st *solveStats) solve(tr *tracer, trace, model, alg string, seed uint64, restarts int, ws *core.WarmStart, inst *core.Instance) (*core.Anytime, time.Duration, error) {
	starts := map[int]time.Duration{}
	probe := core.TracerFuncs{
		OnRestartStart: func(slot int, el time.Duration) {
			st.mu.Lock()
			starts[slot] = el
			st.mu.Unlock()
		},
		OnRestartDone: func(slot int, _ float64, _ int64, el time.Duration) {
			st.mu.Lock()
			st.restartMS = append(st.restartMS, ms(el-starts[slot]))
			st.mu.Unlock()
		},
	}
	a, err := core.AlgorithmByNameOpts(alg, core.LocalSearchOptions{
		Seed: seed, Restarts: restarts, Workers: 1, Tracer: probe, WarmStart: ws,
	})
	if err != nil {
		return nil, 0, err
	}
	var res *core.Anytime
	d := tr.timed(trace, 0, "core.solve."+alg+"."+model, func() {
		res = core.SolveAnytime(context.Background(), a, inst)
	})
	st.mu.Lock()
	defer st.mu.Unlock()
	st.evals += res.Evals
	st.busy += d
	st.cache = st.cache.Add(res.Cache)
	key := alg + "." + model
	st.byCombo[key] = append(st.byCombo[key], ms(d))
	return res, d, nil
}

// report records the core.* metrics an in-process solve set measured.
// Combinations the set never ran read 0.
func (st *solveStats) report(rep *report) {
	for _, a := range algorithms {
		for _, m := range models {
			rep.set(fmt.Sprintf("core.solve_ms.%s.%s", a, m), median(st.byCombo[a+"."+m]))
		}
	}
	rep.set("core.restart_ms", median(st.restartMS))
}

// patchOps draws a seeded churn sequence: each patch removes one
// advertiser and adds a copy of one of inst's advertisers with demand and
// payment scaled by one factor in [0.9, 1.1), so the market keeps its
// shape (and its solve cost) however long the churn runs. Advertiser
// counts stay fixed, so every index is valid against any generation.
func patchOps(r *rand.Rand, inst *core.Instance, n int) [][]catalog.PatchOp {
	na := inst.NumAdvertisers()
	out := make([][]catalog.PatchOp, n)
	for i := range out {
		a := inst.Advertiser(r.IntN(na))
		f := 0.9 + 0.2*r.Float64()
		out[i] = []catalog.PatchOp{
			{Op: "remove", Advertiser: r.IntN(na)},
			{Op: "add", Demand: int64(float64(a.Demand)*f) + 1, Payment: math.Floor(a.Payment * f)},
		}
	}
	return out
}
