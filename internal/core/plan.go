package core

import (
	"fmt"

	"repro/internal/coverage"
)

// Unassigned is the owner value of a billboard not assigned to any
// advertiser.
const Unassigned = -1

// Plan is a mutable deployment strategy S = {S_1, ..., S_|A|}: a partial
// assignment of billboards to advertisers respecting the disjointness
// constraint S_i ∩ S_j = ∅ (each billboard has at most one owner).
//
// The plan maintains, per advertiser, an incremental coverage counter so
// that influence, regret and marginal gains are always available in O(1)
// and every mutation costs O(deg) in the size of the affected coverage
// lists, plus the counter's gain-table upkeep (see coverage.Counter). It also
// counts marginal-influence evaluations (evals) as the work measure
// reported by the efficiency study.
type Plan struct {
	inst     *Instance
	counters []*coverage.Counter // one per advertiser
	regrets  []float64           // cached R(S_i)
	owner    []int               // billboard -> advertiser index or Unassigned
	evals    int64               // marginal-evaluation counter (work measure)
	cache    *gainCache          // lazy-greedy selection state (gaincache.go)
	stats    CacheStats          // selection-engine effectiveness counters
	eligible int                 // unassigned billboards with non-zero degree
}

// NewPlan returns the empty plan (every billboard unassigned) for the
// instance.
func NewPlan(inst *Instance) *Plan {
	n := inst.NumAdvertisers()
	p := &Plan{
		inst:     inst,
		counters: make([]*coverage.Counter, n),
		regrets:  make([]float64, n),
		owner:    make([]int, inst.Universe().NumBillboards()),
	}
	for i := range p.counters {
		p.counters[i] = coverage.NewCounterWithThreshold(inst.Universe(), inst.Impressions())
		p.regrets[i] = inst.Regret(i, 0)
	}
	u := inst.Universe()
	for b := range p.owner {
		p.owner[b] = Unassigned
		if u.Degree(b) > 0 {
			p.eligible++
		}
	}
	return p
}

// Instance returns the instance this plan deploys.
func (p *Plan) Instance() *Instance { return p.inst }

// Owner returns the advertiser owning billboard b, or Unassigned.
func (p *Plan) Owner(b int) int { return p.owner[b] }

// Influence returns I(S_i), the influence currently achieved for
// advertiser i.
func (p *Plan) Influence(i int) int { return p.counters[i].Covered() }

// Regret returns R(S_i) for advertiser i.
func (p *Plan) Regret(i int) float64 { return p.regrets[i] }

// TotalRegret returns R(S) = Σ_i R(S_i), the MROAM objective. The sum is
// taken over the cached per-advertiser regrets, each of which is recomputed
// exactly whenever its coverage changes, so the result carries no
// incremental drift.
func (p *Plan) TotalRegret() float64 {
	total := 0.0
	for _, r := range p.regrets {
		total += r
	}
	return total
}

// TotalDual returns R′(S) = Σ_i R′(S_i), the dual objective of §6.3.
func (p *Plan) TotalDual() float64 {
	total := 0.0
	for i := range p.counters {
		total += p.inst.Dual(i, p.counters[i].Covered())
	}
	return total
}

// Satisfied reports whether advertiser i's demand is met.
func (p *Plan) Satisfied(i int) bool {
	return p.inst.Satisfied(i, p.counters[i].Covered())
}

// SatisfiedCount returns the number of advertisers whose demand is met.
func (p *Plan) SatisfiedCount() int {
	n := 0
	for i := range p.counters {
		if p.Satisfied(i) {
			n++
		}
	}
	return n
}

// Set appends the billboards assigned to advertiser i to dst in ascending
// order and returns the extended slice.
func (p *Plan) Set(i int, dst []int) []int { return p.counters[i].Members(dst) }

// SetSize returns |S_i|.
func (p *Plan) SetSize(i int) int { return p.counters[i].Size() }

// UnassignedBillboards appends all unassigned billboard IDs to dst in
// ascending order and returns the extended slice.
func (p *Plan) UnassignedBillboards(dst []int) []int {
	for b, o := range p.owner {
		if o == Unassigned {
			dst = append(dst, b)
		}
	}
	return dst
}

// Evals returns the cumulative number of marginal-influence evaluations
// performed through this plan, the work measure used by the efficiency
// study.
func (p *Plan) Evals() int64 { return p.evals }

// AddEvals adds n to the evaluation counter. Algorithms call this when they
// perform marginal evaluations outside the plan's own mutation methods.
func (p *Plan) AddEvals(n int64) { p.evals += n }

// CacheStats returns the cumulative selection-engine effectiveness counters
// (gain-cache hits/misses and full-scan fallbacks) accrued through this
// plan. Like Evals, the counters of a plan returned by the restart
// framework aggregate the deterministic completed prefix, so they are
// identical for any worker count.
func (p *Plan) CacheStats() CacheStats { return p.stats }

// refreshRegret recomputes the cached regret of advertiser i after its
// coverage changed.
func (p *Plan) refreshRegret(i int) {
	p.regrets[i] = p.inst.Regret(i, p.counters[i].Covered())
}

// Assign gives unassigned billboard b to advertiser i. It panics if b is
// already owned.
func (p *Plan) Assign(b, i int) {
	if p.owner[b] != Unassigned {
		panic(fmt.Sprintf("core: Assign(%d, %d): billboard owned by %d", b, i, p.owner[b]))
	}
	p.owner[b] = i
	if p.inst.Universe().Degree(b) > 0 {
		p.eligible--
	}
	p.counters[i].Add(b)
	p.evals++
	p.refreshRegret(i)
}

// Release returns billboard b to the unassigned pool. It panics if b is not
// owned.
func (p *Plan) Release(b int) {
	i := p.owner[b]
	if i == Unassigned {
		panic(fmt.Sprintf("core: Release(%d): billboard not owned", b))
	}
	p.owner[b] = Unassigned
	if p.inst.Universe().Degree(b) > 0 {
		p.eligible++
	}
	p.counters[i].Remove(b)
	p.evals++
	p.refreshRegret(i)
	// S_i shrank, so i's cached gain upper bounds are no longer bounds;
	// the freed billboard re-enters the other advertisers' heaps.
	p.invalidateGainCache(i)
	p.gainCacheOnRelease(b)
}

// ReleaseAll returns every billboard of advertiser i to the unassigned pool
// and returns how many were released. It empties S_i with one counter
// Reset instead of one Remove per billboard, and otherwise does exactly
// what a Release of each member in ascending order does, one evaluation
// per billboard included.
func (p *Plan) ReleaseAll(i int) int {
	members := p.counters[i].Members(nil)
	if len(members) == 0 {
		return 0
	}
	p.counters[i].Reset()
	p.refreshRegret(i)
	p.invalidateGainCache(i)
	u := p.inst.Universe()
	for _, b := range members {
		p.owner[b] = Unassigned
		if u.Degree(b) > 0 {
			p.eligible++
		}
		p.evals++
		p.gainCacheOnRelease(b)
	}
	return len(members)
}

// GainOf returns I(S_i ∪ {b}) − I(S_i) for an unowned billboard b, counting
// one evaluation.
func (p *Plan) GainOf(i, b int) int {
	p.evals++
	return p.counters[i].Gain(b)
}

// LossOf returns I(S_i) − I(S_i \ {b}) for a billboard b owned by i,
// counting one evaluation.
func (p *Plan) LossOf(i, b int) int {
	p.evals++
	return p.counters[i].Loss(b)
}

// SwapDeltaOf returns I((S_i \ {out}) ∪ {in}) − I(S_i) without mutating,
// counting one evaluation. out must be owned by i and in must not be owned
// by i (it may be owned by another advertiser or unassigned).
func (p *Plan) SwapDeltaOf(i, out, in int) int {
	p.evals++
	return p.counters[i].SwapDelta(out, in)
}

// ExchangeSets swaps the entire billboard sets of advertisers i and j
// (the ALS move). Influence values travel with the sets; only the regret
// mapping changes.
func (p *Plan) ExchangeSets(i, j int) {
	if i == j {
		return
	}
	for _, b := range p.counters[i].Members(nil) {
		p.owner[b] = j
	}
	for _, b := range p.counters[j].Members(nil) {
		p.owner[b] = i
	}
	p.counters[i], p.counters[j] = p.counters[j], p.counters[i]
	p.evals++
	p.refreshRegret(i)
	p.refreshRegret(j)
	// Both sets changed wholesale; their gain bounds are meaningless now.
	p.invalidateGainCache(i)
	p.invalidateGainCache(j)
}

// ExchangeBillboards swaps billboard bi (owned by advertiser i) with
// billboard bj (owned by advertiser j), the BLS move (1).
func (p *Plan) ExchangeBillboards(bi, bj int) {
	i, j := p.owner[bi], p.owner[bj]
	if i == Unassigned || j == Unassigned || i == j {
		panic(fmt.Sprintf("core: ExchangeBillboards(%d, %d): owners %d, %d", bi, bj, i, j))
	}
	p.Release(bi)
	p.Release(bj)
	p.Assign(bj, i)
	p.Assign(bi, j)
}

// Replace substitutes billboard out (owned by some advertiser) with the
// unassigned billboard in, the BLS move (2).
func (p *Plan) Replace(out, in int) {
	i := p.owner[out]
	if i == Unassigned {
		panic(fmt.Sprintf("core: Replace(%d, %d): out not owned", out, in))
	}
	if p.owner[in] != Unassigned {
		panic(fmt.Sprintf("core: Replace(%d, %d): in owned by %d", out, in, p.owner[in]))
	}
	p.Release(out)
	p.Assign(in, i)
}

// Clone returns a deep, independent copy of the plan. The evaluation
// counter is copied as well.
func (p *Plan) Clone() *Plan {
	c := &Plan{
		inst:     p.inst,
		counters: make([]*coverage.Counter, len(p.counters)),
		regrets:  append([]float64(nil), p.regrets...),
		owner:    append([]int(nil), p.owner...),
		evals:    p.evals,
		stats:    p.stats,
		eligible: p.eligible,
	}
	for i, ctr := range p.counters {
		c.counters[i] = ctr.Clone()
	}
	return c
}

// CopyFrom overwrites this plan's state with src's (both must be plans of
// the same instance). It reuses the destination's counter storage, so a
// scratch plan copied once per local-search sweep allocates nothing.
func (p *Plan) CopyFrom(src *Plan) {
	if p.inst != src.inst {
		panic("core: CopyFrom across instances")
	}
	if p == src {
		return
	}
	for i := range p.counters {
		p.counters[i].CopyFrom(src.counters[i])
	}
	copy(p.regrets, src.regrets)
	copy(p.owner, src.owner)
	p.evals = src.evals
	p.stats = src.stats
	p.eligible = src.eligible
	p.invalidateAllGainCaches()
}

// Validate checks the structural invariants: the owner table matches the
// counters, cached regrets match a recomputation, and disjointness holds by
// construction of the owner table. It returns the first violation found.
func (p *Plan) Validate() error {
	u := p.inst.Universe()
	for b := 0; b < u.NumBillboards(); b++ {
		o := p.owner[b]
		if o == Unassigned {
			for i := range p.counters {
				if p.counters[i].Has(b) {
					return fmt.Errorf("core: billboard %d unowned but in counter %d", b, i)
				}
			}
			continue
		}
		if o < 0 || o >= len(p.counters) {
			return fmt.Errorf("core: billboard %d has invalid owner %d", b, o)
		}
		for i := range p.counters {
			if p.counters[i].Has(b) != (i == o) {
				return fmt.Errorf("core: billboard %d owner table says %d but counter %d disagrees", b, o, i)
			}
		}
	}
	for i := range p.counters {
		want := p.inst.Regret(i, p.counters[i].Covered())
		if diff := p.regrets[i] - want; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("core: advertiser %d cached regret %v, recomputed %v", i, p.regrets[i], want)
		}
	}
	// The model's own feasibility constraints (per-zone caps for
	// ZonalModel; nothing for BaseModel) are part of a plan's validity.
	return p.inst.model.Validate(p)
}

// Breakdown splits the total regret into its two components as reported in
// the paper's stacked-bar figures: the excessive-influence regret of
// over-satisfied advertisers and the unsatisfied penalty of under-satisfied
// ones.
func (p *Plan) Breakdown() (excess, unsatisfied float64) {
	for i := range p.counters {
		if p.Satisfied(i) {
			excess += p.regrets[i]
		} else {
			unsatisfied += p.regrets[i]
		}
	}
	return excess, unsatisfied
}
