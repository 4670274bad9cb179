// Package core implements the paper's contribution: the MROAM problem
// (Minimizing Regret for the OOH Advertising Market, Definition 3.1), its
// regret model (Equation 1), the dual maximum-revenue objective R′
// (Equation 2), deployment plans, and the four algorithms evaluated in the
// paper — the budget-effective greedy G-Order (Algorithm 1), the synchronous
// greedy G-Global (Algorithm 2), and the randomized local search framework
// (Algorithm 3) with its advertiser-driven (ALS, Algorithm 4) and
// billboard-driven (BLS, Algorithm 5) neighborhood strategies — plus an
// exact brute-force solver used as a test oracle on small instances.
package core

import (
	"fmt"

	"repro/internal/coverage"
)

// Advertiser is one campaign proposal: a minimum demanded influence I_i and
// the payment L_i committed if the demand is met (§3.1).
type Advertiser struct {
	ID      int
	Demand  int64   // I_i, must be >= 1
	Payment float64 // L_i, must be >= 0
}

// Instance is one MROAM problem: a coverage universe (billboards ×
// trajectories), an advertiser set, and the unsatisfied penalty ratio γ.
// The influence measure is the paper's union coverage by default; an
// impression threshold k > 1 (NewInstanceWithImpressions) switches to the
// impression-count measure the paper cites as an orthogonal alternative.
type Instance struct {
	universe    *coverage.Universe
	advertisers []Advertiser
	gamma       float64
	impressions int // influence threshold k; 1 = union coverage
	// model owns the objective and feasibility semantics (model.go).
	model Model
}

// NewInstance validates and constructs an MROAM instance. Advertiser IDs
// are reassigned densely in slice order. γ must lie in [0, 1] (§3.2): γ=0
// means no payment at all unless the demand is fully met; γ=1 means payment
// proportional to the satisfied fraction.
func NewInstance(u *coverage.Universe, advertisers []Advertiser, gamma float64) (*Instance, error) {
	return NewInstanceWithImpressions(u, advertisers, gamma, 1)
}

// NewInstanceWithImpressions constructs an instance under the
// impression-count influence measure: a trajectory counts toward I(S_i)
// only after it meets at least k billboards of S_i. k = 1 recovers
// NewInstance exactly.
func NewInstanceWithImpressions(u *coverage.Universe, advertisers []Advertiser, gamma float64, k int) (*Instance, error) {
	if u == nil {
		return nil, fmt.Errorf("core: nil universe")
	}
	if gamma < 0 || gamma > 1 {
		return nil, fmt.Errorf("core: gamma %v outside [0, 1]", gamma)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: impression threshold %d < 1", k)
	}
	for i := range advertisers {
		advertisers[i].ID = i
		if advertisers[i].Demand < 1 {
			return nil, fmt.Errorf("core: advertiser %d demand %d < 1", i, advertisers[i].Demand)
		}
		if advertisers[i].Payment < 0 {
			return nil, fmt.Errorf("core: advertiser %d payment %v < 0", i, advertisers[i].Payment)
		}
	}
	// Every plan's counters share the universe's inverted index; build it
	// now rather than inside the first (possibly deadline-bound) solve.
	u.BuildIndex()
	return &Instance{universe: u, advertisers: advertisers, gamma: gamma, impressions: k,
		model: BaseModel{}}, nil
}

// WithModel returns a copy of the instance carrying the given regret model
// (nil restores BaseModel). Plans and solvers built from the returned
// instance evaluate the model's objective and consult its feasibility hooks;
// the receiver is unchanged, so base and variant instances over the same
// universe can coexist.
func (in *Instance) WithModel(m Model) (*Instance, error) {
	if m == nil {
		m = BaseModel{}
	}
	if zm, ok := m.(*ZonalModel); ok && len(zm.zoneOf) != in.universe.NumBillboards() {
		return nil, fmt.Errorf("core: zonal model covers %d billboards, universe has %d",
			len(zm.zoneOf), in.universe.NumBillboards())
	}
	c := *in
	c.model = m
	return &c, nil
}

// Model returns the instance's regret model (BaseModel unless WithModel
// attached another).
func (in *Instance) Model() Model { return in.model }

// MustInstance is NewInstance that panics on error, for tests and hand-built
// examples.
func MustInstance(u *coverage.Universe, advertisers []Advertiser, gamma float64) *Instance {
	inst, err := NewInstance(u, advertisers, gamma)
	if err != nil {
		panic(err)
	}
	return inst
}

// Universe returns the coverage universe.
func (in *Instance) Universe() *coverage.Universe { return in.universe }

// NumAdvertisers returns |A|.
func (in *Instance) NumAdvertisers() int { return len(in.advertisers) }

// Advertiser returns advertiser i.
func (in *Instance) Advertiser(i int) Advertiser { return in.advertisers[i] }

// Gamma returns the unsatisfied penalty ratio γ.
func (in *Instance) Gamma() float64 { return in.gamma }

// Impressions returns the influence threshold k (1 = union coverage).
func (in *Instance) Impressions() int { return in.impressions }

// Regret evaluates the model's regret for advertiser i achieving the given
// influence. For the default BaseModel this is Equation 1:
//
//	R(S_i) = L_i·(1 − γ·I(S_i)/I_i)  if I(S_i) < I_i
//	R(S_i) = L_i·(I(S_i) − I_i)/I_i  otherwise
//
// The first branch is the revenue regret of an unsatisfied advertiser, the
// second the excessive-influence (opportunity-cost) regret of an
// over-satisfied one. Regret is 0 exactly when I(S_i) = I_i (or L_i = 0).
func (in *Instance) Regret(i int, achieved int) float64 {
	return in.model.Regret(in, i, achieved)
}

// Satisfied reports whether the given achieved influence meets advertiser
// i's demand under the instance's model.
func (in *Instance) Satisfied(i int, achieved int) bool {
	return in.model.Satisfied(in, i, achieved)
}

// Dual evaluates the model's rewired objective R′. For BaseModel this is
// Equation 2, the revenue-like quantity whose maximization is dual to
// minimizing R (§6.3):
//
//	R′(S_i) = L_i·I(S_i)/I_i             if I(S_i) < I_i
//	R′(S_i) = L_i − L_i·(I(S_i) − I_i)/I_i  otherwise
//
// R(S_i) + R′(S_i) = L_i whenever γ = 1; in general R′(S_i) = L_i iff
// R(S_i) = 0 (for L_i > 0).
func (in *Instance) Dual(i int, achieved int) float64 {
	return in.model.Dual(in, i, achieved)
}

// TotalPayment returns Σ L_i, the revenue of a perfect deployment. Useful
// for normalizing regret across instances.
func (in *Instance) TotalPayment() float64 {
	total := 0.0
	for _, a := range in.advertisers {
		total += a.Payment
	}
	return total
}

// TotalDemand returns I^A = Σ I_i, the global demand (§7.1.3).
func (in *Instance) TotalDemand() int64 {
	var total int64
	for _, a := range in.advertisers {
		total += a.Demand
	}
	return total
}

// DemandSupplyRatio returns α = I^A / I*, the global demand over the host's
// supply (§7.1.3). Returns 0 when the universe has no supply.
func (in *Instance) DemandSupplyRatio() float64 {
	supply := in.universe.TotalSupply()
	if supply == 0 {
		return 0
	}
	return float64(in.TotalDemand()) / float64(supply)
}
