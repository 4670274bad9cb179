package core

import (
	"fmt"
	"math"
)

// This file makes Section 6.3's analysis executable: the ψ statistic, the
// (1+r)-approximate local maximum check of Definition 6.1, and the
// approximation factor ρ of Theorem 2 for the dual maximize-R′ objective.
// Package tests verify the theorem's inequality ρ·R′(S) ≥ R′(OPT) against
// the exact solver on small instances.

// Psi returns the instance model's ψ statistic for advertiser i (Lemma
// 6.1). For BaseModel this is max_o I({o}) / I_i, the ratio of the largest
// single billboard influence to the demand; constrained models may exclude
// billboards no feasible set can contain. Values ≥ 1 mean one billboard
// alone can satisfy the demand, which voids the (1−ψ)^{−|U|} branch of the
// bound.
func Psi(inst *Instance, i int) float64 {
	return inst.model.Psi(inst, i)
}

// ApproximationFactor returns the model's Theorem 2 factor — for BaseModel
// ρ = max(1 + r·|U|, (1−ψ)^{−|U|}) — for advertiser i under improvement
// ratio r. It returns +Inf when ψ ≥ 1 (the second branch diverges),
// mirroring the theory: the guarantee is only informative when no single
// billboard dwarfs the demand.
func ApproximationFactor(inst *Instance, i int, r float64) float64 {
	return inst.model.ApproximationFactor(inst, i, r)
}

// IsApproxLocalMaximum reports whether the plan's set for advertiser i is a
// (1+r)-approximate local maximum of the dual objective R′ per Definition
// 6.1: (1+r)·R′(S) ≥ R′(S \ {o}) for every o ∈ S and (1+r)·R′(S) ≥
// R′(S ∪ {o}) for every unassigned o ∉ S. It returns the first violating
// billboard and direction when not.
func IsApproxLocalMaximum(p *Plan, i int, r float64) (ok bool, violator int, direction string) {
	inst := p.Instance()
	base := inst.Dual(i, p.Influence(i))
	threshold := (1 + r) * base
	for _, b := range p.Set(i, nil) {
		loss := p.LossOf(i, b)
		if inst.Dual(i, p.Influence(i)-loss) > threshold+1e-9 {
			return false, b, "remove"
		}
	}
	for _, b := range p.UnassignedBillboards(nil) {
		// Under a constrained model the neighborhood is the feasible moves
		// only: an addition the model forbids cannot witness non-maximality.
		if !inst.model.CanAssign(p, i, b) {
			continue
		}
		gain := p.GainOf(i, b)
		if inst.Dual(i, p.Influence(i)+gain) > threshold+1e-9 {
			return false, b, "add"
		}
	}
	return true, -1, ""
}

// DefaultDualMaxMoves is the move cap DualLocalSearch applies when the
// caller passes maxMoves < 1. It is a termination safety valve, not part of
// the theory: a search that stops here has NOT necessarily reached a local
// maximum, which is why the function reports convergence separately.
const DefaultDualMaxMoves = 10000

// DualLocalSearch greedily improves advertiser i's set under the dual
// objective R′ using single add/remove/swap moves until it reaches a
// (1+r)-approximate local maximum (the single-advertiser search analyzed in
// §6.3). Only unassigned billboards are considered for additions and swaps,
// so multi-advertiser plans remain disjoint.
//
// maxMoves bounds the number of accepted moves; values < 1 select
// DefaultDualMaxMoves. It returns the number of accepted moves and whether
// the search converged — stopped because no improving move exists (a true
// (1+r)-approximate local maximum) rather than because the cap fired.
// Callers asserting fixed-point properties must check converged: on
// adversarial instances the cap can stop the search mid-descent.
func DualLocalSearch(p *Plan, i int, r float64, maxMoves int) (moves int, converged bool) {
	if r < 0 {
		r = 0
	}
	if maxMoves < 1 {
		maxMoves = DefaultDualMaxMoves
	}
	inst := p.Instance()
	for moves < maxMoves {
		base := inst.Dual(i, p.Influence(i))
		threshold := (1 + r) * base
		improved := false

		for _, b := range p.UnassignedBillboards(nil) {
			if !inst.model.CanAssign(p, i, b) {
				continue
			}
			gain := p.GainOf(i, b)
			if inst.Dual(i, p.Influence(i)+gain) > threshold+1e-9 {
				p.Assign(b, i)
				improved = true
				break
			}
		}
		if !improved {
			for _, b := range p.Set(i, nil) {
				loss := p.LossOf(i, b)
				if inst.Dual(i, p.Influence(i)-loss) > threshold+1e-9 {
					p.Release(b)
					improved = true
					break
				}
			}
		}
		if !improved {
		swap:
			for _, out := range p.Set(i, nil) {
				for _, in := range p.UnassignedBillboards(nil) {
					if !inst.model.CanSwap(p, i, out, in) {
						continue
					}
					delta := p.SwapDeltaOf(i, out, in)
					if inst.Dual(i, p.Influence(i)+delta) > threshold+1e-9 {
						p.Replace(out, in)
						improved = true
						break swap
					}
				}
			}
		}
		if !improved {
			return moves, true
		}
		moves++
	}
	return moves, false
}

// VerifyTheorem2 checks Theorem 2's inequality ρ·R′(S) ≥ R′(OPT) for a
// single-advertiser instance: it runs DualLocalSearch to a fixed point,
// computes ρ, finds the dual optimum exhaustively, and returns an error if
// the bound fails. Only instances within Exact's size limits are accepted.
func VerifyTheorem2(inst *Instance, r float64) error {
	if inst.NumAdvertisers() != 1 {
		return fmt.Errorf("core: Theorem 2 analysis covers the single-advertiser case, got %d", inst.NumAdvertisers())
	}
	p := NewPlan(inst)
	if _, converged := DualLocalSearch(p, 0, r, 0); !converged {
		return fmt.Errorf("core: dual local search hit the %d-move cap before reaching a fixed point", DefaultDualMaxMoves)
	}
	if ok, b, dir := IsApproxLocalMaximum(p, 0, r); !ok {
		return fmt.Errorf("core: search did not reach a local maximum (billboard %d, %s)", b, dir)
	}
	rho := ApproximationFactor(inst, 0, r)
	if math.IsInf(rho, 1) {
		return nil // bound vacuous when ψ ≥ 1
	}
	optDual, err := exactDualOptimum(inst)
	if err != nil {
		return err
	}
	got := inst.Dual(0, p.Influence(0))
	if rho*got+1e-9 < optDual {
		return fmt.Errorf("core: Theorem 2 violated: ρ·R'(S) = %v·%v < R'(OPT) = %v", rho, got, optDual)
	}
	return nil
}

// exactDualOptimum exhaustively maximizes R′ over all subsets for a
// single-advertiser instance.
func exactDualOptimum(inst *Instance) (float64, error) {
	nB := inst.Universe().NumBillboards()
	if nB > ExactMaxBillboards {
		return 0, fmt.Errorf("core: dual optimum limited to %d billboards, got %d", ExactMaxBillboards, nB)
	}
	p := NewPlan(inst)
	best := inst.Dual(0, 0)
	var rec func(b int)
	rec = func(b int) {
		if b == nB {
			if v := inst.Dual(0, p.Influence(0)); v > best {
				best = v
			}
			return
		}
		rec(b + 1)
		p.Assign(b, 0)
		rec(b + 1)
		p.Release(b)
	}
	rec(0)
	return best, nil
}
