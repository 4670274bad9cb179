package core

import (
	"math"
	"testing"

	"repro/internal/coverage"
	"repro/internal/rng"
)

// This file is the property-based pass over the regret model (Equation 1):
// rather than pinning individual examples, it samples hundreds of random
// instances and random plans and checks the invariants the paper's analysis
// leans on. Each test draws at least 200 instances.

// randomPlan assigns roughly two thirds of the billboards to random
// advertisers.
func randomPlan(r *rng.RNG, inst *Instance) *Plan {
	p := NewPlan(inst)
	for b := 0; b < inst.Universe().NumBillboards(); b++ {
		if r.Intn(3) != 0 {
			p.Assign(b, r.Intn(inst.NumAdvertisers()))
		}
	}
	return p
}

// drawInstance samples instance-shape parameters across the ranges the
// paper's experiments sweep (under- and over-supplied, all γ).
func drawInstance(r *rng.RNG) *Instance {
	nTraj := 20 + r.Intn(200)
	nBB := 5 + r.Intn(40)
	maxDeg := 1 + r.Intn(20)
	nAdv := 1 + r.Intn(8)
	alpha := r.Range(0.2, 2.5)
	gamma := r.Range(0, 1)
	return randomInstance(r, nTraj, nBB, maxDeg, nAdv, alpha, gamma)
}

func TestPropertyRegretInvariants(t *testing.T) {
	r := rng.New(1234)
	const trials = 220
	for trial := 0; trial < trials; trial++ {
		inst := drawInstance(r)
		p := randomPlan(r, inst)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < inst.NumAdvertisers(); i++ {
			// The incremental counter must agree with the from-scratch
			// evaluator.
			achieved := inst.Universe().UnionCount(p.Set(i, nil))
			if achieved != p.Influence(i) {
				t.Fatalf("trial %d adv %d: counter influence %d, from scratch %d",
					trial, i, p.Influence(i), achieved)
			}
			// R(S_i) ≥ 0 on both branches of Equation 1, and at most the
			// worst case max(L_i, L_i·(I(S)−I_i)/I_i).
			if reg := p.Regret(i); reg < 0 {
				t.Fatalf("trial %d adv %d: negative regret %v", trial, i, reg)
			}
			if !p.Satisfied(i) {
				a := inst.Advertiser(i)
				if reg := p.Regret(i); reg > a.Payment+1e-9 {
					t.Fatalf("trial %d adv %d: unsatisfied regret %v exceeds payment %v",
						trial, i, reg, a.Payment)
				}
			}
			// R′(S_i) ≤ L_i with equality iff R(S_i) = 0 (for L_i > 0).
			a := inst.Advertiser(i)
			dual := inst.Dual(i, p.Influence(i))
			if dual > a.Payment+1e-9 {
				t.Fatalf("trial %d adv %d: dual %v exceeds payment %v", trial, i, dual, a.Payment)
			}
			if a.Payment > 0 {
				zeroRegret := p.Regret(i) == 0
				fullDual := math.Abs(dual-a.Payment) < 1e-9
				if zeroRegret != fullDual {
					t.Fatalf("trial %d adv %d: R=%v but R′=%v (L=%v)",
						trial, i, p.Regret(i), dual, a.Payment)
				}
			}
		}
		// The stacked-bar decomposition must sum back to the objective.
		excess, unsat := p.Breakdown()
		if diff := math.Abs(excess + unsat - p.TotalRegret()); diff > 1e-6 {
			t.Fatalf("trial %d: breakdown %v + %v != total %v", trial, excess, unsat, p.TotalRegret())
		}
		// The host never collects more than the perfect-deployment revenue.
		if rev := Revenue(p); rev < 0 || rev > inst.TotalPayment()+1e-6 {
			t.Fatalf("trial %d: revenue %v outside [0, %v]", trial, rev, inst.TotalPayment())
		}
	}
}

// TestPropertyBranchSwitchContinuity checks the closed-form behavior of
// Equation 1 where its two branches meet, on 200 random (I_i, L_i, γ)
// draws: R is exactly 0 at I(S_i) = I_i, the drop across the last
// demanded trajectory is L_i(1−γ) + L_i·γ/I_i, the first excess
// trajectory costs L_i/I_i, and R is monotone on each side of the demand.
func TestPropertyBranchSwitchContinuity(t *testing.T) {
	r := rng.New(99)
	emptyUniverse := coverage.MustUniverse(0, nil)
	for trial := 0; trial < 200; trial++ {
		d := int64(1 + r.Intn(1000))
		L := r.Range(0.01, 50)
		gamma := r.Range(0, 1)
		inst := MustInstance(emptyUniverse, []Advertiser{{Demand: d, Payment: L}}, gamma)

		if reg := inst.Regret(0, int(d)); reg != 0 {
			t.Fatalf("trial %d: R at demand = %v, want 0", trial, reg)
		}
		if dual := inst.Dual(0, int(d)); math.Abs(dual-L) > 1e-9*L {
			t.Fatalf("trial %d: R′ at demand = %v, want L = %v", trial, dual, L)
		}
		drop := inst.Regret(0, int(d)-1) - inst.Regret(0, int(d))
		wantDrop := L*(1-gamma) + L*gamma/float64(d)
		if math.Abs(drop-wantDrop) > 1e-9*L {
			t.Fatalf("trial %d: branch-switch drop %v, want %v (d=%d γ=%v)",
				trial, drop, wantDrop, d, gamma)
		}
		step := inst.Regret(0, int(d)+1)
		if math.Abs(step-L/float64(d)) > 1e-9*L {
			t.Fatalf("trial %d: first excess step %v, want %v", trial, step, L/float64(d))
		}
		// Monotone: decreasing up to the demand, increasing beyond it.
		probe := func(a int) float64 { return inst.Regret(0, a) }
		for a := 1; int64(a) <= d; a += 1 + int(d)/7 {
			if probe(a) > probe(a-1)+1e-12 {
				t.Fatalf("trial %d: R increased from %d to %d while unsatisfied", trial, a-1, a)
			}
		}
		for a := int(d) + 1; a < int(d)+20; a++ {
			if probe(a) < probe(a-1)-1e-12 {
				t.Fatalf("trial %d: R decreased from %d to %d while over-satisfied", trial, a-1, a)
			}
		}
	}
}

// TestPropertyReleaseFromUnsatisfiedNeverHelps samples random plans and
// checks the exchange-argument lemma behind the local-search moves: taking
// a billboard away from an advertiser whose demand is not met can only
// raise (never lower) the total regret, for any γ — the freed billboard
// helps only if it is subsequently given to someone else.
func TestPropertyReleaseFromUnsatisfiedNeverHelps(t *testing.T) {
	r := rng.New(777)
	trials := 0
	for trials < 200 {
		inst := drawInstance(r)
		p := randomPlan(r, inst)
		victim := -1
		for i := 0; i < inst.NumAdvertisers(); i++ {
			if !p.Satisfied(i) && p.SetSize(i) > 0 {
				victim = i
				break
			}
		}
		if victim < 0 {
			continue // fully satisfied draw; resample
		}
		set := p.Set(victim, nil)
		b := set[r.Intn(len(set))]
		before := p.TotalRegret()
		p.Release(b)
		after := p.TotalRegret()
		if after < before-1e-9 {
			t.Fatalf("trial %d: releasing billboard %d from unsatisfied advertiser %d dropped regret %v -> %v",
				trials, b, victim, before, after)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: after release: %v", trials, err)
		}
		trials++
	}
}
