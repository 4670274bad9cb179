package core

// This file implements the lazy-greedy (CELF-style) gain cache behind
// bestBillboardFor. Under the union-coverage influence measure the marginal
// gain I(S_i ∪ {b}) − I(S_i) is submodular: it can only shrink as S_i grows.
// A per-advertiser max-heap of stale gain-ratio upper bounds therefore lets
// the greedy re-evaluate only a handful of heap tops per selection instead
// of rescanning every unassigned billboard.
//
// The greedy's primary selection key is not the gain itself but
// key1 = (R(S_i) − R(S_i ∪ {b})) / I({b}), which is *not* submodular (a
// billboard that crosses the demand threshold can see its key1 jump up as
// S_i approaches the demand). The heap is therefore ordered by the
// submodular quantity r̂(b) ≥ gain(b)/deg(b), and selection prunes with a
// provable per-call bound. Writing x = I(S_i), d = I_i, t = d − x > 0,
// g = gain(b), deg = I({b}), Equation 1 gives
//
//	g <  t:  key1 = (L·γ/d)·(g/deg)            ≤ (L·γ/d)·r̂
//	g >= t:  key1 ≤ R(S_i)/deg ≤ R(S_i)·r̂/t    (since r̂ ≥ g/deg ≥ t/deg)
//
// so with C = max(L·γ/d, R(S_i)/t) every unassigned billboard satisfies
// key1 ≤ C·r̂ and key2 = g/deg ≤ r̂. Popping while the top's C·r̂ can still
// match the best evaluated key therefore yields exactly the same selection
// (including the key2 and smaller-ID tie-breaks) as the full scan.
//
// Validity is maintained by the Plan mutation hooks: assigning billboards
// only shrinks gains (bounds stay upper bounds), releasing a billboard of
// advertiser i invalidates i's heap (gains of i may grow) and re-inserts
// the freed billboard into the other advertisers' heaps, and whole-set
// operations (ExchangeSets, CopyFrom) invalidate the affected heaps. The
// cache is only used under the union-coverage measure (impression threshold
// k = 1); for k > 1 gains are not submodular and bestBillboardFor falls
// back to the full scan.
//
// The same heap serves every regret model. A popped top that the model's
// CanAssign rejects is dropped, not re-pushed. That is exact because the
// Model contract makes feasible sets downward closed: if S_i ∪ {b} is
// infeasible, so is S'_i ∪ {b} for every S'_i ⊇ S_i, so b stays rejected
// while S_i only grows — and every shrink of S_i (Release, ExchangeSets,
// CopyFrom) drops i's heap, which is rebuilt from the whole unassigned
// pool. The pruning bound dominates every candidate, so it dominates the
// feasible ones.

// CacheStats counts the effectiveness of the greedy's billboard selection
// engine for one plan. A "candidate" is an unassigned billboard with
// non-zero degree — exactly the set the reference full scan evaluates per
// selection call — so, because the cache provably makes the same
// selections, Hits+Misses over a CELF-mode run equals Misses over the
// corresponding scan-mode run under an unconstrained model (see
// TestGainCacheStatsMatchRecount).
type CacheStats struct {
	// Hits counts candidate evaluations the CELF pruning bound avoided:
	// per selection call, the eligible candidates left unevaluated. Under
	// a constrained model it also counts the heap tops skipped as
	// infeasible, so Hits+Misses then exceeds the scan's Misses (the scan
	// only counts candidates CanAssign accepts).
	Hits int64
	// Misses counts candidates whose marginal gain was exactly evaluated,
	// whether off the heap (CELF) or by the full scan.
	Misses int64
	// Rescans counts bestBillboardFor calls that fell back to the full
	// scan (small universe in auto mode, or the non-submodular k > 1
	// impression measure).
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

// celfSlack is the relative margin added to the pruning bound so that
// floating-point rounding in C·r̂ can never prune a candidate whose exactly
// evaluated key ties the incumbent. Popping a few extra entries only costs
// evaluations; pruning one too many could change the selected billboard.
const celfSlack = 1e-9

// gainEntry is one heap element: a billboard and a stale upper bound on its
// gain(b)/deg(b) ratio for the owning advertiser's current set.
type gainEntry struct {
	b     int
	ratio float64
}

// advGainCache is the lazy-greedy state of one advertiser: a max-heap of
// gainEntry ordered by (ratio desc, b asc) plus a membership bitmap so
// released billboards are re-inserted at most once.
type advGainCache struct {
	heap   []gainEntry
	inHeap []bool
}

// less reports whether entry x has strictly higher heap priority than y.
func (gainEntry) less(x, y gainEntry) bool {
	if x.ratio != y.ratio {
		return x.ratio > y.ratio
	}
	return x.b < y.b
}

// push inserts e into the heap.
func (c *advGainCache) push(e gainEntry) {
	c.heap = append(c.heap, e)
	i := len(c.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(c.heap[i], c.heap[parent]) {
			break
		}
		c.heap[i], c.heap[parent] = c.heap[parent], c.heap[i]
		i = parent
	}
}

// pop removes and returns the maximum entry. The heap must be non-empty.
func (c *advGainCache) pop() gainEntry {
	top := c.heap[0]
	last := len(c.heap) - 1
	c.heap[0] = c.heap[last]
	c.heap = c.heap[:last]
	n := len(c.heap)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && top.less(c.heap[l], c.heap[m]) {
			m = l
		}
		if r < n && top.less(c.heap[r], c.heap[m]) {
			m = r
		}
		if m == i {
			break
		}
		c.heap[i], c.heap[m] = c.heap[m], c.heap[i]
		i = m
	}
	return top
}

// gainCache holds the lazily built per-advertiser heaps of one Plan plus a
// scratch buffer for re-inserting entries evaluated during one selection.
type gainCache struct {
	adv     []*advGainCache
	scratch []gainEntry
}

// gainCacheFor returns advertiser i's heap, building it from the plan's
// current unassigned pool on first use (or after an invalidation). All
// initial ratios are Degree(b)/Degree(b) = 1, so appending billboards in
// ascending ID order already satisfies the heap invariant.
func (p *Plan) gainCacheFor(i int) *advGainCache {
	if p.cache == nil {
		p.cache = &gainCache{adv: make([]*advGainCache, len(p.counters))}
	}
	if c := p.cache.adv[i]; c != nil {
		return c
	}
	u := p.inst.Universe()
	c := &advGainCache{inHeap: make([]bool, len(p.owner))}
	for b, owner := range p.owner {
		if owner != Unassigned || u.Degree(b) == 0 {
			continue
		}
		c.heap = append(c.heap, gainEntry{b: b, ratio: 1})
		c.inHeap[b] = true
	}
	p.cache.adv[i] = c
	return c
}

// invalidateGainCache drops advertiser i's heap. It is called whenever S_i
// shrinks (gains may grow, so the cached upper bounds would become invalid).
func (p *Plan) invalidateGainCache(i int) {
	if p.cache != nil {
		p.cache.adv[i] = nil
	}
}

// invalidateAllGainCaches drops every heap (used by CopyFrom).
func (p *Plan) invalidateAllGainCaches() {
	if p.cache == nil {
		return
	}
	for i := range p.cache.adv {
		p.cache.adv[i] = nil
	}
}

// gainCacheOnRelease records that billboard b returned to the unassigned
// pool: it is re-inserted (with the trivially valid bound ratio 1) into
// every built heap it had been popped from. The releasing advertiser's own
// heap must already have been invalidated by the caller.
func (p *Plan) gainCacheOnRelease(b int) {
	if p.cache == nil || p.inst.Universe().Degree(b) == 0 {
		return
	}
	for _, c := range p.cache.adv {
		if c == nil || c.inHeap[b] {
			continue
		}
		c.push(gainEntry{b: b, ratio: 1})
		c.inHeap[b] = true
	}
}

// celfModeKind selects the greedy's selection engine. The default,
// celfAuto, routes through the gain cache only where it is measured to pay
// off; tests force either path to cross-check them against each other. The
// mode is never written concurrently with a running solver.
type celfModeKind int

const (
	celfAuto celfModeKind = iota
	celfForceOn
	celfForceOff
)

var celfMode = celfAuto

// celfMinBillboards is the auto-mode activation threshold. The cache
// always evaluates fewer marginal gains than the scan, but each evaluation
// carries heap upkeep (pop, re-push, bound checks); the measured crossover
// where the savings win on this implementation sits at roughly 400
// high-degree billboards (see BenchmarkSynchronousGreedySelection).
// Smaller universes keep the full scan's tight loop.
const celfMinBillboards = 400

// planUsesCELF reports whether bestBillboardFor should route through the
// gain cache for this plan. The impression-threshold check is a
// correctness requirement — k > 1 gains are not submodular — and applies
// in every mode. The size threshold is a performance heuristic and only
// applies in celfAuto. The regret model plays no part: infeasible heap
// tops are dropped exactly (see the file comment).
func planUsesCELF(p *Plan) bool {
	if p.inst.Impressions() != 1 {
		return false
	}
	switch celfMode {
	case celfForceOn:
		return true
	case celfForceOff:
		return false
	}
	return p.inst.Universe().NumBillboards() >= celfMinBillboards
}

// bestBillboardCELF is the lazy-greedy implementation of bestBillboardFor:
// identical selection, evaluating only as many candidates as the pruning
// bound requires.
func bestBillboardCELF(p *Plan, i int) (best int, ok bool) {
	u := p.inst.Universe()
	c := p.gainCacheFor(i)
	curRegret := p.Regret(i)
	curInfl := p.Influence(i)

	// C such that key1(b) ≤ C·r̂(b) for every unassigned b — the model's
	// admissibility contract (Model.MarginalUpperBound). For BaseModel the
	// bound is max(L·γ/d, R(S_i)/t) while unsatisfied and 0 once satisfied;
	// TestModelMarginalUpperBound property-checks admissibility for every
	// shipped model.
	cBound := p.inst.model.MarginalUpperBound(p.inst, i, curInfl, curRegret)

	best = -1
	var bestKey1, bestKey2 float64
	evaluated := p.cache.scratch[:0]
	for len(c.heap) > 0 {
		top := c.heap[0]
		if best != -1 {
			ub := cBound * top.ratio
			// Prune only when even the inflated bound cannot reach the
			// incumbent's key1; ties on key1 must keep popping for the
			// key2/ID tie-breaks.
			if ub+celfSlack*(abs(ub)+abs(bestKey1)) < bestKey1 {
				break
			}
			// Exact-zero regime (γ=0 below the demand, or L=0): every
			// key1 is exactly 0, so selection degenerates to the pure
			// coverage ratio key2 — which the heap bounds directly and
			// exactly (r̂ ≥ g/deg holds in float arithmetic: division
			// rounding is monotone). Remaining entries can then neither
			// beat bestKey2 nor tie it, so pruning is exact.
			if cBound == 0 && bestKey1 == 0 && top.ratio < bestKey2 {
				break
			}
		}
		c.pop()
		c.inHeap[top.b] = false
		// An owned top is stale; an infeasible one stays infeasible while
		// S_i grows (downward closure), so both are dropped for good.
		if p.owner[top.b] != Unassigned || !p.inst.model.CanAssign(p, i, top.b) {
			continue
		}
		deg := u.Degree(top.b)
		gain := p.GainOf(i, top.b)
		dR := curRegret - p.inst.Regret(i, curInfl+gain)
		key1 := dR / float64(deg)
		key2 := float64(gain) / float64(deg)
		evaluated = append(evaluated, gainEntry{b: top.b, ratio: key2})
		if best == -1 || key1 > bestKey1 ||
			(key1 == bestKey1 && key2 > bestKey2) ||
			(key1 == bestKey1 && key2 == bestKey2 && top.b < best) {
			best, bestKey1, bestKey2 = top.b, key1, key2
		}
	}
	// Every eligible candidate was either exactly evaluated above or had
	// its evaluation pruned by the bound.
	p.stats.Misses += int64(len(evaluated))
	p.stats.Hits += int64(p.eligible - len(evaluated))
	// Entries evaluated this call go back with their refreshed (exact)
	// ratios, staying valid upper bounds for every later call.
	for _, e := range evaluated {
		c.push(e)
		c.inHeap[e.b] = true
	}
	p.cache.scratch = evaluated[:0]
	return best, best != -1
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
