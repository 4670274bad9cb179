package core

import (
	"context"
	"sort"
)

// This file implements the two greedy heuristics of Section 5:
// G-Order (Algorithm 1, budget-effective greedy) and G-Global (Algorithm 2,
// synchronous greedy).

// bestBillboardFor returns the unassigned billboard maximizing the paper's
// greedy criterion for advertiser i:
//
//	(R(S_i) − R(S_i ∪ {o})) / I({o})
//
// Ties (which always occur under γ=0 while the demand is unreachable, where
// ΔR is 0 for every non-satisfying billboard) are broken by the marginal
// coverage ratio gain(o)/I({o}) and then by the smaller ID, so selection is
// deterministic. Billboards with I({o}) = 0 can never change any influence
// and are skipped, and so are billboards the model's CanAssign hook
// rejects, so the greedy only ever selects feasible moves. Returns ok=false
// if no eligible billboard exists.
//
// Every call scans the unassigned billboards, except those rej records as
// rejected for i: Gain is a table read (coverage.Counter) and CanAssign
// reads the plan's group loads, so a candidate costs O(1) (DESIGN.md §5 has
// the measurement), and a remembered rejection costs one load.
func bestBillboardFor(p *Plan, i int, rej rejections) (best int, ok bool) {
	u := p.inst.Universe()
	curRegret := p.Regret(i)
	curInfl := p.Influence(i)
	var bestKey1, bestKey2 float64
	var candidates int64
	marks := rej[i]
	best = -1
	for b, owner := range p.owner {
		if owner != Unassigned || (marks != nil && marks[b]) {
			continue
		}
		deg := u.Degree(b)
		if deg == 0 {
			continue
		}
		if !p.inst.model.CanAssign(p, i, b) {
			rej.mark(i, b, len(p.owner))
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

// rejections remembers, per advertiser, the billboards the model's
// CanAssign hook has rejected during one greedy run; a row stays nil until
// its advertiser's first rejection, so a run under a model that never
// rejects (the base market) allocates no row. Remembering is exact by the
// Model contract: the hook depends only on S_i and the candidate, feasible
// sets are downward closed, and within one run an active advertiser's S_i
// only grows (G-Global's ReleaseAll retires the advertiser it empties), so
// a rejection can never turn into an acceptance. Only rejections are
// remembered: a billboard owned by another advertiser can return to the
// pool through that advertiser's ReleaseAll and must be a candidate again.
type rejections [][]bool

// mark records b as rejected for i, allocating i's row of n billboards on
// its first rejection.
func (r rejections) mark(i, b, n int) {
	if r[i] == nil {
		r[i] = make([]bool, n)
	}
	r[i][b] = true
}

// CacheStats counts the greedy's billboard-selection work for one plan. It
// keeps the hit/miss/rescan shape that Anytime.Cache, the tracers and the
// mroamd_gain_cache_events_total metric report, so their consumers read the
// same fields.
type CacheStats struct {
	// Hits is always 0: no selection skips a candidate.
	Hits int64
	// Misses counts candidates whose marginal gain was exactly evaluated:
	// per selection call, the unassigned billboards with non-zero degree
	// that the model's CanAssign hook accepts.
	Misses int64
	// Rescans counts bestBillboardFor calls, each a scan of the unassigned
	// billboards that skips the ones CanAssign already rejected for the
	// advertiser in the same greedy run.
	Rescans int64
}

// Add returns the field-wise sum s + o.
func (s CacheStats) Add(o CacheStats) CacheStats {
	return CacheStats{
		Hits:    s.Hits + o.Hits,
		Misses:  s.Misses + o.Misses,
		Rescans: s.Rescans + o.Rescans,
	}
}

// Sub returns the field-wise difference s − o.
func (s CacheStats) Sub(o CacheStats) CacheStats {
	return CacheStats{
		Hits:    s.Hits - o.Hits,
		Misses:  s.Misses - o.Misses,
		Rescans: s.Rescans - o.Rescans,
	}
}

// byBudgetEffectiveness returns advertiser indices sorted by descending
// L_i/I_i (ties by smaller index).
func byBudgetEffectiveness(inst *Instance) []int {
	order := make([]int, inst.NumAdvertisers())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		ax, ay := inst.Advertiser(order[x]), inst.Advertiser(order[y])
		return ax.Payment/float64(ax.Demand) > ay.Payment/float64(ay.Demand)
	})
	return order
}

// GreedyOrder is Algorithm 1 (G-Order): advertisers are served one at a
// time in descending budget-effectiveness order; each receives billboards
// that maximize regret reduction per unit influence until satisfied or the
// inventory runs out.
func GreedyOrder(inst *Instance) *Plan {
	p, _ := greedyOrder(nil, inst)
	return p
}

// GreedyOrderCtx is GreedyOrder under a context: if ctx fires mid-build the
// partially assigned plan (structurally valid) is returned with ok=false.
func GreedyOrderCtx(ctx context.Context, inst *Instance) (p *Plan, completed bool) {
	return greedyOrder(ctxDone(ctx), inst)
}

func greedyOrder(done <-chan struct{}, inst *Instance) (p *Plan, completed bool) {
	p = NewPlan(inst)
	rej := make(rejections, inst.NumAdvertisers())
	for _, i := range byBudgetEffectiveness(inst) {
		for !p.Satisfied(i) {
			if cancelled(done) {
				return p, false
			}
			b, ok := bestBillboardFor(p, i, rej)
			if !ok {
				break
			}
			p.Assign(b, i)
		}
	}
	return p, true
}

// SynchronousGreedy is Algorithm 2 (G-Global): it assigns one
// regret-effective billboard per round to every unsatisfied advertiser,
// so that no advertiser monopolizes the ideal inventory. When the inventory
// is exhausted while two or more advertisers remain unsatisfied, the least
// budget-effective unsatisfied advertiser releases its billboards back to
// the pool and leaves the active set (its partial assignment is abandoned),
// until fewer than two advertisers remain unsatisfied.
//
// The plan is modified in place (it plays the S^in role of the paper's
// pseudo-code, which is non-empty when this routine is invoked from the
// local search framework) and returned for convenience.
func SynchronousGreedy(p *Plan) *Plan {
	synchronousGreedyDone(nil, p)
	return p
}

// SynchronousGreedyCtx is SynchronousGreedy under a context: it reports
// whether the greedy ran to convergence before ctx fired. On cancellation
// the plan is left in its current (structurally valid) intermediate state.
func SynchronousGreedyCtx(ctx context.Context, p *Plan) (completed bool) {
	return synchronousGreedyDone(ctxDone(ctx), p)
}

func synchronousGreedyDone(done <-chan struct{}, p *Plan) (completed bool) {
	inst := p.inst
	active := make([]bool, inst.NumAdvertisers())
	for i := range active {
		active[i] = true
	}
	rej := make(rejections, len(active))
	for {
		assignedAny := false
		exhausted := false
		for i := range active {
			if !active[i] || p.Satisfied(i) {
				continue
			}
			if cancelled(done) {
				return false
			}
			b, ok := bestBillboardFor(p, i, rej)
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
			return true
		}
		if exhausted && !assignedAny {
			if unsat < 2 {
				return true
			}
			// Release the least budget-effective unsatisfied advertiser
			// and retire it from the active set (Lines 2.9-2.11).
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

// GGlobal runs Algorithm 2 from the empty plan, the G-Global method of the
// experiment section.
func GGlobal(inst *Instance) *Plan {
	return SynchronousGreedy(NewPlan(inst))
}
