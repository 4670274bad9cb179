package core

import (
	"fmt"
	"math"
)

// This file defines the pluggable regret-model layer. A Model owns the
// per-advertiser objective (regret, satisfaction, the dual R′) and the
// feasibility semantics of a problem variant, so the four solvers, the gain
// cache and the theory checks can serve materially different markets
// (zonal-capped, tag-specific, time-sliced, ...) without forking. The
// contract every variant must supply is documented in DESIGN.md §15.
//
// BaseModel reproduces the paper's MROAM closed forms bit-identically.
// Instance.Regret/Satisfied/Dual, the solvers' feasibility hooks and the
// CELF gain cache reach every model, the base one included, through this
// interface alone (DESIGN.md §15 has the measurements that show the
// dispatch is free). ZonalModel is the first shipped variant: the same
// objective under per-zone caps on an advertiser's counted influence, after
// "Minimizing Regret in Billboard Advertisement under Zonal Influence
// Constraint" (arXiv 2402.01294); it embeds BaseModel for the objective and
// overrides only the feasibility hooks and ψ.

// Assignment is the read-only view of a deployment plan a Model consults for
// feasibility decisions. *Plan satisfies it; the interface keeps models from
// mutating the plan mid-check and lets tests feed hand-built assignments.
type Assignment interface {
	// Instance returns the instance the assignment deploys.
	Instance() *Instance
	// Owner returns the advertiser owning billboard b, or Unassigned.
	Owner(b int) int
	// Influence returns I(S_i).
	Influence(i int) int
	// SetSize returns |S_i|.
	SetSize(i int) int
	// Set appends S_i's billboards to dst in ascending order.
	Set(i int, dst []int) []int
}

// Model is one problem variant: the objective evaluated per advertiser at a
// given achieved influence, the prune bound that keeps the lazy-greedy gain
// cache admissible, and the feasibility hooks the solvers consult before
// add/swap/exchange moves. Implementations must be stateless with respect to
// any particular plan (the same Model value serves concurrent restarts) and
// every method must be deterministic.
type Model interface {
	// Kind is the wire name of the variant ("base", "zonal").
	Kind() string

	// Regret evaluates R(S_i) for advertiser i achieving the given
	// influence (the variant's Equation 1).
	Regret(in *Instance, i, achieved int) float64
	// Satisfied reports whether the achieved influence meets advertiser
	// i's demand under this model.
	Satisfied(in *Instance, i, achieved int) bool
	// Dual evaluates the variant's rewired revenue objective R′
	// (Equation 2 for the base model).
	Dual(in *Instance, i, achieved int) float64

	// MarginalUpperBound returns a constant C such that for advertiser i at
	// the given achieved influence and current regret, every candidate
	// billboard b satisfies
	//
	//	(R(S_i) − R(S_i ∪ {b})) / I({b}) ≤ C · r̂(b)
	//
	// for any upper bound r̂(b) ≥ gain(b)/I({b}). This is the admissibility
	// contract of the CELF gain cache (gaincache.go): an inadmissible bound
	// silently changes greedy selections. TestModelMarginalUpperBound
	// property-checks it for every shipped model.
	MarginalUpperBound(in *Instance, i, achieved int, curRegret float64) float64

	// CanAssign reports whether giving unassigned billboard b to advertiser
	// i keeps S_i feasible. Release moves need no hook: feasible sets are
	// downward closed in every variant.
	CanAssign(p Assignment, i, b int) bool
	// CanSwap reports whether replacing billboard out ∈ S_i with billboard
	// repl ∉ S_i keeps S_i feasible (BLS exchange/replace moves).
	CanSwap(p Assignment, i, out, repl int) bool
	// CanExchangeSets reports whether swapping the entire sets of
	// advertisers i and j keeps both feasible (the ALS move).
	CanExchangeSets(p Assignment, i, j int) bool
	// Validate checks the whole assignment against the variant's
	// feasibility constraints, returning the first violation. Plan.Validate
	// consults it in addition to the structural invariants.
	Validate(p Assignment) error

	// Psi returns the variant's ψ statistic for advertiser i (Lemma 6.1):
	// the largest single-billboard influence any feasible assignment could
	// add, over the demand.
	Psi(in *Instance, i int) float64
	// ApproximationFactor returns the variant's Theorem 2 factor ρ for
	// advertiser i under improvement ratio r (+Inf when the bound is
	// vacuous).
	ApproximationFactor(in *Instance, i int, r float64) float64
}

// BaseModel is the paper's MROAM market: Equation 1 regret, Equation 2 dual,
// and no feasibility constraints beyond billboard disjointness. It is the
// model every instance carries unless WithModel attaches another.
type BaseModel struct{}

// Kind returns "base".
func (BaseModel) Kind() string { return ModelBase }

// Regret evaluates Equation 1 (see Instance.Regret).
func (BaseModel) Regret(in *Instance, i, achieved int) float64 {
	a := in.advertisers[i]
	d := float64(a.Demand)
	if int64(achieved) < a.Demand {
		return a.Payment * (1 - in.gamma*float64(achieved)/d)
	}
	return a.Payment * (float64(achieved) - d) / d
}

// Satisfied reports I(S_i) ≥ I_i.
func (BaseModel) Satisfied(in *Instance, i, achieved int) bool {
	return int64(achieved) >= in.advertisers[i].Demand
}

// Dual evaluates Equation 2 (see Instance.Dual).
func (BaseModel) Dual(in *Instance, i, achieved int) float64 {
	a := in.advertisers[i]
	d := float64(a.Demand)
	if int64(achieved) < a.Demand {
		return a.Payment * float64(achieved) / d
	}
	return a.Payment - a.Payment*(float64(achieved)-d)/d
}

// MarginalUpperBound derives C from Equation 1's two branches. Writing
// x = achieved, d = I_i, t = d − x > 0, g = gain(b), deg = I({b}):
//
//	g <  t:  key1 = (L·γ/d)·(g/deg)         ≤ (L·γ/d)·r̂
//	g >= t:  key1 ≤ R(S_i)/deg ≤ R(S_i)·r̂/t  (since r̂ ≥ g/deg ≥ t/deg)
//
// The crossing term R(S_i)/t only matters when some billboard could actually
// cross the remaining demand t, which requires a degree of at least t. When
// the advertiser is already satisfied, key1 ≤ 0 for every billboard (extra
// influence only adds excessive regret), so C = 0 remains a valid bound.
func (BaseModel) MarginalUpperBound(in *Instance, i, achieved int, curRegret float64) float64 {
	a := in.advertisers[i]
	if int64(achieved) >= a.Demand {
		return 0
	}
	c := a.Payment * in.gamma / float64(a.Demand)
	if t := a.Demand - int64(achieved); t <= int64(in.universe.MaxDegree()) {
		if rb := curRegret / float64(t); rb > c {
			c = rb
		}
	}
	return c
}

// CanAssign always allows: the base market has no per-set constraints.
func (BaseModel) CanAssign(Assignment, int, int) bool { return true }

// CanSwap always allows.
func (BaseModel) CanSwap(Assignment, int, int, int) bool { return true }

// CanExchangeSets always allows.
func (BaseModel) CanExchangeSets(Assignment, int, int) bool { return true }

// Validate reports no violations: disjointness is structural (the owner
// table) and the base market adds nothing on top.
func (BaseModel) Validate(Assignment) error { return nil }

// Psi returns ψ = max_o I({o}) / I_i (Lemma 6.1).
func (BaseModel) Psi(in *Instance, i int) float64 {
	return float64(in.universe.MaxDegree()) / float64(in.advertisers[i].Demand)
}

// ApproximationFactor returns Theorem 2's ρ = max(1 + r·|U|, (1−ψ)^{−|U|}),
// +Inf when ψ ≥ 1.
func (m BaseModel) ApproximationFactor(in *Instance, i int, r float64) float64 {
	return approximationFactor(m.Psi(in, i), in, r)
}

// approximationFactor is the Theorem 2 shape shared by the shipped models;
// only ψ differs between them.
func approximationFactor(psi float64, in *Instance, r float64) float64 {
	if r < 0 {
		r = 0
	}
	nU := float64(in.universe.NumBillboards())
	first := 1 + r*nU
	if psi >= 1 {
		return math.Inf(1)
	}
	return math.Max(first, math.Pow(1-psi, -nU))
}

// Model kind wire names.
const (
	ModelBase  = "base"
	ModelZonal = "zonal"
)

// ZonalModel is the zonal-influence-constrained market: the base objective
// under a uniform per-zone cap on each advertiser's counted influence. A
// set S_i is feasible iff for every zone z,
//
//	Σ_{b ∈ S_i, zone(b) = z} I({b}) ≤ cap
//
// — no advertiser may concentrate more than cap influence supply in one
// zone. Zones partition the billboards (derived from the geo grid by
// catalog.Build); the cap is uniform across zones and advertisers, which
// makes whole-set exchanges (the ALS move) trivially feasibility-preserving.
//
// The objective is the base one: Regret, Satisfied, Dual, MarginalUpperBound
// (still admissible over any feasible candidate subset) and CanExchangeSets
// (the uniform cap makes every whole-set trade feasible) are promoted from
// the embedded BaseModel.
type ZonalModel struct {
	BaseModel
	zoneOf []int // billboard ID -> zone index
	zones  int   // number of distinct zones
	cap    int64 // per-zone influence-supply cap
}

// NewZonalModel builds a ZonalModel over the given billboard→zone partition.
// zoneOf is indexed by billboard ID; its length must match the universe the
// model is later attached to (WithModel enforces that). cap must be ≥ 1.
func NewZonalModel(zoneOf []int, cap int64) (*ZonalModel, error) {
	if cap < 1 {
		return nil, fmt.Errorf("core: zonal cap %d < 1", cap)
	}
	zones := 0
	for b, z := range zoneOf {
		if z < 0 {
			return nil, fmt.Errorf("core: billboard %d has negative zone %d", b, z)
		}
		if z+1 > zones {
			zones = z + 1
		}
	}
	return &ZonalModel{zoneOf: append([]int(nil), zoneOf...), zones: zones, cap: cap}, nil
}

// Kind returns "zonal".
func (*ZonalModel) Kind() string { return ModelZonal }

// Zones returns the number of distinct zones in the partition.
func (m *ZonalModel) Zones() int { return m.zones }

// Cap returns the per-zone influence-supply cap.
func (m *ZonalModel) Cap() int64 { return m.cap }

// ZoneOf returns billboard b's zone index.
func (m *ZonalModel) ZoneOf(b int) int { return m.zoneOf[b] }

// zoneLoad returns advertiser i's influence supply currently counted in
// zone, in O(|S_i|) with no retained state (the model serves concurrent
// restarts).
func (m *ZonalModel) zoneLoad(p Assignment, i, zone int) int64 {
	u := p.Instance().Universe()
	var load int64
	for _, b := range p.Set(i, nil) {
		if m.zoneOf[b] == zone {
			load += int64(u.Degree(b))
		}
	}
	return load
}

// CanAssign allows the assignment iff billboard b's zone stays within the
// cap after adding b's supply to advertiser i's load there.
func (m *ZonalModel) CanAssign(p Assignment, i, b int) bool {
	deg := int64(p.Instance().Universe().Degree(b))
	if deg == 0 {
		return true
	}
	z := m.zoneOf[b]
	return m.zoneLoad(p, i, z)+deg <= m.cap
}

// CanSwap allows replacing out ∈ S_i with repl iff repl's zone stays within
// the cap; out leaving can only lower its own zone's load.
func (m *ZonalModel) CanSwap(p Assignment, i, out, repl int) bool {
	u := p.Instance().Universe()
	deg := int64(u.Degree(repl))
	if deg == 0 {
		return true
	}
	z := m.zoneOf[repl]
	load := m.zoneLoad(p, i, z) + deg
	if m.zoneOf[out] == z {
		load -= int64(u.Degree(out))
	}
	return load <= m.cap
}

// Validate checks every advertiser's per-zone load against the cap.
func (m *ZonalModel) Validate(p Assignment) error {
	u := p.Instance().Universe()
	loads := make([]int64, m.zones)
	var set []int
	for i := 0; i < p.Instance().NumAdvertisers(); i++ {
		for z := range loads {
			loads[z] = 0
		}
		set = p.Set(i, set[:0])
		for _, b := range set {
			z := m.zoneOf[b]
			loads[z] += int64(u.Degree(b))
			if loads[z] > m.cap {
				return fmt.Errorf("core: advertiser %d exceeds zonal cap %d in zone %d (load %d at billboard %d)",
					i, m.cap, z, loads[z], b)
			}
		}
	}
	return nil
}

// Psi returns ψ over the assignable billboards only: a billboard whose
// degree alone exceeds the zonal cap can never join any feasible set, so it
// cannot bound the single-step gain.
func (m *ZonalModel) Psi(in *Instance, i int) float64 {
	u := in.universe
	maxDeg := 0
	for b := 0; b < u.NumBillboards(); b++ {
		if d := u.Degree(b); int64(d) <= m.cap && d > maxDeg {
			maxDeg = d
		}
	}
	return float64(maxDeg) / float64(in.advertisers[i].Demand)
}

// ApproximationFactor is Theorem 2's shape under the zonal ψ (the promoted
// BaseModel method would use the base ψ).
func (m *ZonalModel) ApproximationFactor(in *Instance, i int, r float64) float64 {
	return approximationFactor(m.Psi(in, i), in, r)
}
