package core

import (
	"path/filepath"
	"testing"

	"repro/internal/rng"
)

// This file checks the feasibility-first solver scans against reference
// copies of the scans they replaced: the greedy selection that asked
// CanAssign of every unassigned billboard on every call, and the BLS point
// moves that paid for SwapDelta before asking CanSwap. Both forms must make
// the same plans with the same counters.

// refBestBillboardFor is bestBillboardFor without remembered rejections.
func refBestBillboardFor(p *Plan, i int) (best int, ok bool) {
	u := p.inst.Universe()
	curRegret := p.Regret(i)
	curInfl := p.Influence(i)
	var bestKey1, bestKey2 float64
	var candidates int64
	best = -1
	for b, owner := range p.owner {
		if owner != Unassigned {
			continue
		}
		deg := u.Degree(b)
		if deg == 0 || !p.inst.model.CanAssign(p, i, b) {
			continue
		}
		candidates++
		gain := p.GainOf(i, b)
		dR := curRegret - p.inst.Regret(i, curInfl+gain)
		key1 := dR / float64(deg)
		key2 := float64(gain) / float64(deg)
		if best == -1 || key1 > bestKey1 || (key1 == bestKey1 && key2 > bestKey2) {
			best, bestKey1, bestKey2 = b, key1, key2
		}
	}
	p.stats.Misses += candidates
	p.stats.Rescans++
	return best, best != -1
}

// refGreedyOrder is G-Order over refBestBillboardFor.
func refGreedyOrder(inst *Instance) *Plan {
	p := NewPlan(inst)
	for _, i := range byBudgetEffectiveness(inst) {
		for !p.Satisfied(i) {
			b, ok := refBestBillboardFor(p, i)
			if !ok {
				break
			}
			p.Assign(b, i)
		}
	}
	return p
}

// refSynchronousGreedy is G-Global over refBestBillboardFor.
func refSynchronousGreedy(p *Plan) {
	inst := p.inst
	active := make([]bool, inst.NumAdvertisers())
	for i := range active {
		active[i] = true
	}
	for {
		assignedAny := false
		exhausted := false
		for i := range active {
			if !active[i] || p.Satisfied(i) {
				continue
			}
			b, ok := refBestBillboardFor(p, i)
			if !ok {
				exhausted = true
				continue
			}
			p.Assign(b, i)
			assignedAny = true
		}
		unsat := 0
		for i := range active {
			if active[i] && !p.Satisfied(i) {
				unsat++
			}
		}
		if unsat == 0 {
			return
		}
		if exhausted && !assignedAny {
			if unsat < 2 {
				return
			}
			j := -1
			var jEff float64
			for i := range active {
				if !active[i] || p.Satisfied(i) {
					continue
				}
				a := inst.Advertiser(i)
				eff := a.Payment / float64(a.Demand)
				if j == -1 || eff < jEff {
					j, jEff = i, eff
				}
			}
			p.ReleaseAll(j)
			active[j] = false
		}
	}
}

// refBillboardLocalSearch is BLS with the delta-first point moves and the
// reference greedy in move (4).
func refBillboardLocalSearch(p *Plan, opts LocalSearchOptions) (accepted int) {
	opts = opts.withDefaults()
	inst := p.inst
	n := inst.NumAdvertisers()
	var s blsScratch
	for pass := 0; pass < opts.MaxPasses; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if refTryExchangeMove(p, i, j, opts) {
					accepted++
					improved = true
				}
			}
		}
		for i := 0; i < n; i++ {
			if refTryReplaceMove(p, i, opts) {
				accepted++
				improved = true
			}
		}
		for i := 0; i < n; i++ {
			if tryReleaseMove(p, i, opts, &s) {
				accepted++
				improved = true
			}
		}
		before := p.TotalRegret()
		trial := p.Clone()
		refSynchronousGreedy(trial)
		p.AddEvals(trial.Evals() - p.Evals())
		p.stats = trial.stats
		if trial.TotalRegret() < before-opts.threshold(before) {
			p.CopyFrom(trial)
			accepted++
			improved = true
		}
		if !improved {
			return accepted
		}
	}
	return accepted
}

func refTryExchangeMove(p *Plan, i, j int, opts LocalSearchOptions) bool {
	inst := p.inst
	for _, bm := range p.Set(i, nil) {
		for _, bn := range p.Set(j, nil) {
			cur := p.Regret(i) + p.Regret(j)
			di := p.SwapDeltaOf(i, bm, bn)
			dj := p.SwapDeltaOf(j, bn, bm)
			next := inst.Regret(i, p.Influence(i)+di) + inst.Regret(j, p.Influence(j)+dj)
			if next < cur-opts.threshold(p.TotalRegret()) {
				if !inst.model.CanSwap(p, i, bm, bn) || !inst.model.CanSwap(p, j, bn, bm) {
					continue
				}
				p.ExchangeBillboards(bm, bn)
				return true
			}
		}
	}
	return false
}

func refTryReplaceMove(p *Plan, i int, opts LocalSearchOptions) bool {
	inst := p.inst
	for _, bm := range p.Set(i, nil) {
		for _, bn := range p.UnassignedBillboards(nil) {
			cur := p.Regret(i)
			di := p.SwapDeltaOf(i, bm, bn)
			next := inst.Regret(i, p.Influence(i)+di)
			if next < cur-opts.threshold(p.TotalRegret()) {
				if !inst.model.CanSwap(p, i, bm, bn) {
					continue
				}
				p.Replace(bm, bn)
				return true
			}
		}
	}
	return false
}

// scanFuzzInstance draws a tiny instance from seed. zones > 0 attaches a
// ZonalModel with zones%4+1 round-robin zones and a cap between 1 and twice
// the maximum degree, picked by capSel, so the caps bind on most draws.
func scanFuzzInstance(t *testing.T, seed uint64, zones, capSel int) *Instance {
	inst := drawInstance(rng.New(seed))
	if zones <= 0 {
		return inst
	}
	u := inst.Universe()
	zoneOf := make([]int, u.NumBillboards())
	for b := range zoneOf {
		zoneOf[b] = b % (zones%4 + 1)
	}
	span := uint64(2*u.MaxDegree() + 1)
	m, err := NewZonalModel(zoneOf, 1+int64(uint64(capSel)%span))
	if err != nil {
		t.Fatal(err)
	}
	zi, err := inst.WithModel(m)
	if err != nil {
		t.Fatal(err)
	}
	return zi
}

// samePlans fails unless got and want assign every billboard alike and
// carry bit-identical regrets, evals and selection counters.
func samePlans(t *testing.T, what string, got, want *Plan) {
	t.Helper()
	for b := range got.owner {
		if got.Owner(b) != want.Owner(b) {
			t.Fatalf("%s: billboard %d owned by %d, reference %d", what, b, got.Owner(b), want.Owner(b))
		}
	}
	if got.TotalRegret() != want.TotalRegret() {
		t.Fatalf("%s: regret %v, reference %v", what, got.TotalRegret(), want.TotalRegret())
	}
	if got.Evals() != want.Evals() {
		t.Fatalf("%s: evals %d, reference %d", what, got.Evals(), want.Evals())
	}
	if got.CacheStats() != want.CacheStats() {
		t.Fatalf("%s: stats %+v, reference %+v", what, got.CacheStats(), want.CacheStats())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// scanFuzzSeed is one row of FuzzFeasibilityFirstScans arguments.
type scanFuzzSeed struct {
	seed          uint64
	zones, capSel int
	seeded        bool
}

// scanFuzzSeeds is the seed corpus: base and zonal draws, cold and seeded
// starts, caps from the tightest to above the maximum degree.
var scanFuzzSeeds = []scanFuzzSeed{
	{1, 0, 0, false},
	{2, 0, 0, true},
	{3, 1, 0, false},
	{4, 2, 3, true},
	{5, 3, 7, true},
	{6, 4, 12, false},
	{7, 1, 40, true},
	{8, 2, 1, true},
	{77, 3, 5, false},
	{909, 2, 9, true},
	{1006, 2, 38, false},
}

// scanFuzzStart is the G-Global start of a fuzz input: the empty plan, or
// with seeded one random billboard per advertiser.
func scanFuzzStart(inst *Instance, seed uint64, seeded bool) *Plan {
	p := NewPlan(inst)
	if seeded {
		seedRandomPlan(p, rng.New(seed^0x9e3779b97f4a7c15))
	}
	return p
}

// FuzzFeasibilityFirstScans runs G-Order, G-Global and BLS with the
// feasibility-first scans and with the reference scans on a tiny base or
// zonal instance, G-Global and BLS from the empty plan or from a
// seedRandomPlan start (so G-Global's releases hand boards back to the
// pool), and requires identical plans, regrets, evals and counters.
func FuzzFeasibilityFirstScans(f *testing.F) {
	for _, s := range scanFuzzSeeds {
		f.Add(s.seed, s.zones, s.capSel, s.seeded)
	}
	f.Fuzz(func(t *testing.T, seed uint64, zones, capSel int, seeded bool) {
		inst := scanFuzzInstance(t, seed, zones, capSel)
		samePlans(t, "G-Order", GreedyOrder(inst), refGreedyOrder(inst))

		start := scanFuzzStart(inst, seed, seeded)
		got, want := start.Clone(), start.Clone()
		SynchronousGreedy(got)
		refSynchronousGreedy(want)
		samePlans(t, "G-Global", got, want)

		opts := LocalSearchOptions{Search: BillboardDriven, ImprovementRatio: float64(capSel%3) * 0.01}
		if a, b := BillboardLocalSearch(got, opts), refBillboardLocalSearch(want, opts); a != b {
			t.Fatalf("BLS accepted %d moves, reference %d", a, b)
		}
		samePlans(t, "BLS", got, want)
	})
}

// TestRegenerateFuzzScanCorpus rewrites the checked-in seed corpus of
// FuzzFeasibilityFirstScans when run with UPDATE_FUZZ_CORPUS=1; otherwise it
// verifies the files exist.
func TestRegenerateFuzzScanCorpus(t *testing.T) {
	rows := make([][]any, len(scanFuzzSeeds))
	for k, s := range scanFuzzSeeds {
		rows[k] = []any{s.seed, s.zones, s.capSel, s.seeded}
	}
	writeFuzzCorpus(t, filepath.Join("testdata", "fuzz", "FuzzFeasibilityFirstScans"), rows)
}

// TestFeasibilityFirstScansExercised guards the fuzz target against going
// vacuous: across the seed corpus the zonal caps must reject candidates in
// the greedy and swaps in BLS, and G-Global must release advertisers.
func TestFeasibilityFirstScansExercised(t *testing.T) {
	owned := func(p *Plan) (n int64) {
		for b := range p.owner {
			if p.Owner(b) != Unassigned {
				n++
			}
		}
		return n
	}
	var rejects, swapRejects, releases int64
	for _, s := range scanFuzzSeeds {
		inst := scanFuzzInstance(t, s.seed, s.zones, s.capSel)
		m := inst.Model()
		p := scanFuzzStart(inst, s.seed, s.seeded)
		evals, held := p.Evals(), owned(p)
		SynchronousGreedy(p)
		// The greedy's evals are its gain evaluations (Misses) plus one
		// per assignment and one per released billboard, while the plan
		// grew by assignments minus releases.
		moves := p.Evals() - evals - p.CacheStats().Misses
		releases += (moves - (owned(p) - held)) / 2
		for i := 0; i < inst.NumAdvertisers(); i++ {
			for _, bm := range p.Set(i, nil) {
				for b := range p.owner {
					if p.Owner(b) != Unassigned || inst.Universe().Degree(b) == 0 {
						continue
					}
					if !m.CanAssign(p, i, b) {
						rejects++
					}
					if !m.CanSwap(p, i, bm, b) {
						swapRejects++
					}
				}
			}
		}
	}
	if rejects == 0 || swapRejects == 0 || releases == 0 {
		t.Fatalf("seed corpus never exercised a path: %d CanAssign rejections, %d CanSwap rejections, %d released billboards",
			rejects, swapRejects, releases)
	}
	t.Logf("%d CanAssign rejections, %d CanSwap rejections, %d released billboards", rejects, swapRejects, releases)
}
