package core

import (
	"fmt"
	"math"
)

// This file defines the pluggable regret-model layer. A Model owns the
// per-advertiser objective (regret, satisfaction, the dual R′) and the
// feasibility semantics of a problem variant, so the four solvers and the
// theory checks can serve materially different markets (zonal-capped,
// tag-specific, time-sliced, ...) without forking. The contract every
// variant must supply is documented in DESIGN.md §15.
//
// BaseModel reproduces the paper's MROAM closed forms bit-identically.
// Instance.Regret/Satisfied/Dual and the solvers' feasibility hooks reach
// every model, the base one included, through this interface alone
// (DESIGN.md §15 has the measurements that show the dispatch is free).
// ZonalModel is the first shipped variant: the same objective under
// per-zone caps on an advertiser's counted influence, after "Minimizing
// Regret in Billboard Advertisement under Zonal Influence Constraint"
// (arXiv 2402.01294); it embeds BaseModel for the objective and overrides
// only the partition, the feasibility hooks and ψ. Its per-zone loads are
// kept by the Plan (Assignment.GroupLoad), so every hook is O(1).

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
	// GroupLoad returns Σ I({b}) over the billboards b ∈ S_i in group g of
	// the instance model's Partition. It is only defined when that
	// partition is non-nil.
	GroupLoad(i, g int) int64
}

// Model is one problem variant: the objective evaluated per advertiser at a
// given achieved influence, an optional billboard partition whose loads the
// plan keeps, and the feasibility hooks the solvers consult before
// add/swap/exchange moves. Implementations must be stateless with respect to
// any particular plan (the same Model value serves concurrent restarts) and
// every method must be deterministic.
//
// The solvers rely on two more properties of the hooks. CanAssign(p, i, b)
// and CanSwap(p, i, out, repl) depend only on S_i and the billboards named,
// never on other advertisers' sets or on who owns the candidate. And
// feasible sets are downward closed: a subset of a feasible set is
// feasible, so a billboard CanAssign rejects for S_i stays rejected for
// every superset of S_i. The greedy remembers each advertiser's rejections
// for the rest of its run on the strength of these two properties.
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

	// Partition returns the billboard → group map (indexed by billboard
	// ID, groups numbered from 0) whose per-advertiser degree sums the
	// feasibility hooks read through Assignment.GroupLoad, or nil when the
	// variant needs none. A Plan keeps those sums current on every
	// mutation; the returned slice must not change afterwards.
	Partition() []int

	// CanAssign reports whether giving unassigned billboard b to advertiser
	// i keeps S_i feasible. Release moves need no hook: feasible sets are
	// downward closed in every variant. The answer depends only on S_i and
	// b, and once false stays false while S_i only grows.
	CanAssign(p Assignment, i, b int) bool
	// CanSwap reports whether replacing billboard out ∈ S_i with billboard
	// repl ∉ S_i keeps S_i feasible (BLS exchange/replace moves). The
	// answer depends only on S_i, out and repl; BLS asks it before it
	// evaluates the swap's influence delta.
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

// Partition returns nil: the base market keeps no per-group loads.
func (BaseModel) Partition() []int { return nil }

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
// The objective is the base one: Regret, Satisfied, Dual and
// CanExchangeSets (the uniform cap makes every whole-set trade feasible) are
// promoted from the embedded BaseModel.
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

// Partition returns the zone of every billboard: the Plan keeps each
// advertiser's per-zone load, which CanAssign and CanSwap read.
func (m *ZonalModel) Partition() []int { return m.zoneOf }

// CanAssign allows the assignment iff billboard b's zone stays within the
// cap after adding b's supply to advertiser i's load there.
func (m *ZonalModel) CanAssign(p Assignment, i, b int) bool {
	deg := int64(p.Instance().Universe().Degree(b))
	if deg == 0 {
		return true
	}
	return p.GroupLoad(i, m.zoneOf[b])+deg <= m.cap
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
	load := p.GroupLoad(i, z) + deg
	if m.zoneOf[out] == z {
		load -= int64(u.Degree(out))
	}
	return load <= m.cap
}

// Validate checks every advertiser's per-zone load against the cap. It
// recounts the loads from the sets rather than reading GroupLoad, so it
// stays an independent reference for the plan's incremental sums.
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
