package core

// This file implements the warm-start seam of the delta-solve path
// (DESIGN.md §16): restart slot 0 of the randomized local search can be
// seeded from an incumbent plan — typically the previous solve of a market
// that has since seen advertiser churn — instead of the greedy-from-empty
// descent. The incumbent is replayed defensively (out-of-range, conflicting
// or model-infeasible holdings are dropped, and Plan.Validate backstops the
// result), and the branch-switch closed forms of Equation 1 screen which
// advertisers the churn can still affect: an untouched advertiser sitting
// exactly at its regret minimum cannot be improved by any move, so its set
// is frozen for the warm descent. Slots 1..Restarts are untouched, so a
// warm run differs from the cold run in slot 0 only, and the cold path
// (WarmStart == nil) is bit-identical to the pre-warm-start engine.

// WarmStart seeds restart slot 0 of RandomizedLocalSearch(Ctx) from an
// incumbent plan. The zero/nil value (no warm start) leaves the engine
// bit-identical to a cold run.
type WarmStart struct {
	// Sets holds the incumbent's per-advertiser billboard sets, indexed by
	// the *current* instance's advertiser IDs (a caller tracking churn
	// remaps them before solving; see catalog.PatchResult). Advertisers
	// with no entry start empty and are treated as dirty.
	Sets [][]int
	// Dirty marks advertisers whose terms changed since the incumbent was
	// computed (revised demand/payment, or newly added); they are always
	// re-optimized. Indices beyond len(Dirty) default to clean.
	Dirty []bool
	// FreedSupply reports that billboards were released since the
	// incumbent was computed (an advertiser was removed, or holdings were
	// dropped during remapping). Over-satisfied advertisers are only
	// frozen when no supply was freed: new free billboards can enable
	// regret-reducing swaps on the increasing branch that were not
	// available at the previous optimum.
	FreedSupply bool
}

// applyWarmStart replays the incumbent onto the empty plan p and returns
// the frozen-advertiser mask for the warm descent, or nil when the
// incumbent could not be validated (p is then left empty and slot 0 runs
// exactly like a cold greedy descent).
//
// Replay is CanAssign-gated: a holding that is out of range, already owned,
// or infeasible under the instance's current model is skipped and its
// advertiser marked touched (never frozen). Plan.Validate then backstops
// the replayed plan against the model's own invariants.
//
// The screen derives from the branch-switch closed forms (Equation 1,
// pinned by TestPropertyBranchSwitchContinuity): R_i is strictly decreasing
// in achieved influence below the demand and strictly increasing above it,
// with R_i = 0 exactly at the switch point. An untouched advertiser with
// R_i = 0 sits at its per-advertiser global minimum — no move can improve
// it. An untouched advertiser on the increasing branch (satisfied, R_i > 0)
// was already move-optimal at the previous local optimum, and nothing about
// its own branch changed — unless supply was freed, which can enable new
// swaps. Unsatisfied advertisers are always dirty: they live on the
// decreasing branch, where any newly available billboard could help.
//
// Freezing is a search restriction, not an exactness guarantee: moves
// involving a frozen advertiser are skipped, which also keeps its
// billboards out of reach of dirty advertisers during the warm descent.
// Slots 1..Restarts search unrestricted, so the reduction still sees
// unfrozen optima.
func applyWarmStart(p *Plan, ws *WarmStart) []bool {
	inst := p.inst
	n := inst.NumAdvertisers()
	nB := inst.Universe().NumBillboards()
	touched := make([]bool, n)
	for i := 0; i < n && i < len(ws.Sets); i++ {
		for _, b := range ws.Sets[i] {
			if b < 0 || b >= nB || p.Owner(b) != Unassigned ||
				!inst.model.CanAssign(p, i, b) {
				touched[i] = true
				continue
			}
			p.Assign(b, i)
		}
	}
	if err := p.Validate(); err != nil {
		// The incumbent does not fit the current instance at all (e.g. a
		// model whose invariants the per-assignment gate cannot express).
		// Release everything: slot 0 degrades to the cold greedy descent.
		for i := 0; i < n; i++ {
			p.ReleaseAll(i)
		}
		return nil
	}
	frozen := make([]bool, n)
	for i := 0; i < n; i++ {
		if touched[i] || i >= len(ws.Sets) || (i < len(ws.Dirty) && ws.Dirty[i]) {
			continue
		}
		frozen[i] = p.Regret(i) == 0 || (p.Satisfied(i) && !ws.FreedSupply)
	}
	return frozen
}

// frozenCount is the number of set bits in a frozen mask.
func frozenCount(frozen []bool) int {
	n := 0
	for _, f := range frozen {
		if f {
			n++
		}
	}
	return n
}
