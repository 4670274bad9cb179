package core

import (
	"math"
	"testing"

	"repro/internal/coverage"
	"repro/internal/rng"
)

func smallInstance() *Instance {
	u := coverage.MustUniverse(12, []coverage.List{
		{0, 1, 2},
		{2, 3, 4},
		{5, 6},
		{7, 8, 9, 10},
		{10, 11},
	})
	return MustInstance(u, []Advertiser{
		{Demand: 4, Payment: 10},
		{Demand: 3, Payment: 6},
	}, 0.5)
}

func TestPlanAssignReleaseLifecycle(t *testing.T) {
	inst := smallInstance()
	p := NewPlan(inst)
	if p.TotalRegret() != 16 { // both fully unsatisfied at 0 achieved
		t.Fatalf("empty plan regret = %v, want 16", p.TotalRegret())
	}
	p.Assign(0, 0)
	p.Assign(1, 0) // overlap at trajectory 2: influence 5
	if got := p.Influence(0); got != 5 {
		t.Fatalf("Influence = %d, want 5", got)
	}
	if !p.Satisfied(0) || p.Satisfied(1) {
		t.Fatal("satisfaction wrong")
	}
	// R(S_0) = 10·(5−4)/4 = 2.5; R(S_1) = 6 (empty).
	if got := p.TotalRegret(); math.Abs(got-8.5) > 1e-9 {
		t.Fatalf("regret = %v, want 8.5", got)
	}
	if got := p.Owner(0); got != 0 {
		t.Fatalf("Owner(0) = %d", got)
	}
	if got := p.Owner(4); got != Unassigned {
		t.Fatalf("Owner(4) = %d, want Unassigned", got)
	}
	p.Release(1)
	if got := p.Influence(0); got != 3 {
		t.Fatalf("after release: Influence = %d, want 3", got)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanPanics(t *testing.T) {
	inst := smallInstance()
	p := NewPlan(inst)
	p.Assign(0, 0)
	p.Assign(1, 1)
	for name, f := range map[string]func(){
		"double assign":       func() { p.Assign(0, 1) },
		"release unowned":     func() { p.Release(3) },
		"exchange same owner": func() { p2 := p.Clone(); p2.Assign(2, 0); p2.ExchangeBillboards(0, 2) },
		"exchange unowned":    func() { p.ExchangeBillboards(0, 3) },
		"replace unowned out": func() { p.Replace(3, 4) },
		"replace owned in":    func() { p.Replace(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestExchangeSets(t *testing.T) {
	inst := smallInstance()
	p := NewPlan(inst)
	p.Assign(0, 0) // S_0 = {b0}: influence 3
	p.Assign(3, 1) // S_1 = {b3}: influence 4
	i0, i1 := p.Influence(0), p.Influence(1)
	p.ExchangeSets(0, 1)
	if p.Influence(0) != i1 || p.Influence(1) != i0 {
		t.Fatal("influences did not travel with sets")
	}
	if p.Owner(0) != 1 || p.Owner(3) != 0 {
		t.Fatal("owner table not updated by exchange")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Self-exchange is a no-op.
	before := p.TotalRegret()
	p.ExchangeSets(1, 1)
	if p.TotalRegret() != before {
		t.Fatal("self-exchange changed regret")
	}
}

func TestExchangeBillboardsAndReplace(t *testing.T) {
	inst := smallInstance()
	p := NewPlan(inst)
	p.Assign(0, 0)
	p.Assign(2, 1)
	p.ExchangeBillboards(0, 2)
	if p.Owner(0) != 1 || p.Owner(2) != 0 {
		t.Fatal("exchange did not swap owners")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Replace(2, 3)
	if p.Owner(2) != Unassigned || p.Owner(3) != 0 {
		t.Fatal("replace did not move ownership")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseAll(t *testing.T) {
	inst := smallInstance()
	p := NewPlan(inst)
	p.Assign(0, 0)
	p.Assign(1, 0)
	p.Assign(2, 1)
	if got := p.ReleaseAll(0); got != 2 {
		t.Fatalf("ReleaseAll = %d, want 2", got)
	}
	if p.SetSize(0) != 0 || p.Influence(0) != 0 {
		t.Fatal("set 0 not emptied")
	}
	if p.SetSize(1) != 1 {
		t.Fatal("set 1 affected by ReleaseAll(0)")
	}
	free := p.UnassignedBillboards(nil)
	if len(free) != 4 {
		t.Fatalf("unassigned = %v, want 4 entries", free)
	}
}

func TestCloneAndCopyFromIndependence(t *testing.T) {
	inst := smallInstance()
	p := NewPlan(inst)
	p.Assign(0, 0)
	c := p.Clone()
	c.Assign(2, 1)
	if p.Owner(2) != Unassigned {
		t.Fatal("clone mutation leaked to original")
	}
	if c.Influence(1) != 2 || p.Influence(1) != 0 {
		t.Fatal("clone counters not independent")
	}
	fresh := NewPlan(inst)
	fresh.CopyFrom(c)
	if fresh.Influence(1) != 2 || fresh.Owner(0) != 0 {
		t.Fatal("CopyFrom missed state")
	}
	fresh.Release(0)
	if c.Owner(0) != 0 {
		t.Fatal("CopyFrom shares counter state")
	}
	if err := fresh.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCopyFromCrossInstancePanics(t *testing.T) {
	a, b := smallInstance(), smallInstance()
	pa, pb := NewPlan(a), NewPlan(b)
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom across instances did not panic")
		}
	}()
	pa.CopyFrom(pb)
}

func TestGainLossSwapDeltaThroughPlan(t *testing.T) {
	inst := smallInstance()
	p := NewPlan(inst)
	p.Assign(0, 0)                   // covers {0,1,2}
	if g := p.GainOf(0, 1); g != 2 { // b1 covers {2,3,4}, adds {3,4}
		t.Fatalf("GainOf = %d, want 2", g)
	}
	if l := p.LossOf(0, 0); l != 3 {
		t.Fatalf("LossOf = %d, want 3", l)
	}
	if d := p.SwapDeltaOf(0, 0, 3); d != 1 { // {0,1,2} → {7,8,9,10}
		t.Fatalf("SwapDeltaOf = %d, want 1", d)
	}
	if p.Evals() < 3 {
		t.Fatal("evaluation counter not advancing")
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	r := rng.New(17)
	inst := smallInstance()
	p := NewPlan(inst)
	for step := 0; step < 100; step++ {
		b := r.Intn(inst.Universe().NumBillboards())
		if p.Owner(b) == Unassigned {
			p.Assign(b, r.Intn(inst.NumAdvertisers()))
		} else {
			p.Release(b)
		}
		excess, unsat := p.Breakdown()
		if math.Abs(excess+unsat-p.TotalRegret()) > 1e-9 {
			t.Fatalf("breakdown %v + %v != total %v", excess, unsat, p.TotalRegret())
		}
		if excess < 0 || unsat < 0 {
			t.Fatal("negative breakdown component")
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	inst := smallInstance()
	p := NewPlan(inst)
	p.Assign(0, 0)
	p.owner[0] = 1 // corrupt: counter 0 has b0 but owner table says 1
	if err := p.Validate(); err == nil {
		t.Fatal("Validate missed owner/counter mismatch")
	}
	p.owner[0] = 0
	p.regrets[0] = 12345
	if err := p.Validate(); err == nil {
		t.Fatal("Validate missed stale regret cache")
	}
	p.refreshRegret(0)
	p.owner[1] = 7 // invalid advertiser index
	if err := p.Validate(); err == nil {
		t.Fatal("Validate missed invalid owner")
	}
}

func TestPlanRandomOpsKeepInvariants(t *testing.T) {
	r := rng.New(99)
	u := coverage.MustUniverse(50, func() []coverage.List {
		lists := make([]coverage.List, 20)
		for i := range lists {
			ids := make([]int32, r.Intn(10))
			for j := range ids {
				ids[j] = int32(r.Intn(50))
			}
			lists[i] = coverage.NewList(ids)
		}
		return lists
	}())
	inst := MustInstance(u, []Advertiser{
		{Demand: 10, Payment: 20},
		{Demand: 15, Payment: 25},
		{Demand: 8, Payment: 5},
	}, 0.25)
	p := NewPlan(inst)
	for step := 0; step < 500; step++ {
		b := r.Intn(u.NumBillboards())
		switch {
		case p.Owner(b) == Unassigned:
			p.Assign(b, r.Intn(3))
		case r.Float64() < 0.5:
			p.Release(b)
		default:
			free := p.UnassignedBillboards(nil)
			if len(free) > 0 {
				p.Replace(b, free[r.Intn(len(free))])
			}
		}
		if step%50 == 0 {
			if err := p.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanGroupLoadsTrackEveryMutation drives random Plan mutations on
// zonal instances and calls Validate, which recounts every advertiser's
// per-zone load from the owner table, after each one and after warm-start
// seeding. The random walk runs under a cap no set can reach, so every
// mutation kind applies unguarded; the warm start runs under a binding cap,
// so CanAssign gates the replay on the loads it reads.
func TestPlanGroupLoadsTrackEveryMutation(t *testing.T) {
	r := rng.New(2121)
	ops := map[string]int{}
	warmHeld := 0
	check := func(trial int, op string, p *Plan) {
		t.Helper()
		ops[op]++
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d after %s: %v", trial, op, err)
		}
	}
	for trial := 0; trial < 40; trial++ {
		inst := zonalInstance(t, r, 1+r.Intn(4), 1<<40)
		n, nB := inst.NumAdvertisers(), inst.Universe().NumBillboards()
		p := NewPlan(inst)
		for step := 0; step < 300; step++ {
			b := r.Intn(nB)
			i, j := r.Intn(n), r.Intn(n)
			switch r.Intn(10) {
			case 0, 1, 2:
				if p.Owner(b) == Unassigned {
					p.Assign(b, i)
					check(trial, "Assign", p)
				}
			case 3:
				if p.Owner(b) != Unassigned {
					p.Release(b)
					check(trial, "Release", p)
				}
			case 4:
				p.ReleaseAll(i)
				check(trial, "ReleaseAll", p)
			case 5:
				if free := p.UnassignedBillboards(nil); p.Owner(b) != Unassigned && len(free) > 0 {
					p.Replace(b, free[r.Intn(len(free))])
					check(trial, "Replace", p)
				}
			case 6:
				b2 := r.Intn(nB)
				if o, o2 := p.Owner(b), p.Owner(b2); o != Unassigned && o2 != Unassigned && o != o2 {
					p.ExchangeBillboards(b, b2)
					check(trial, "ExchangeBillboards", p)
				}
			case 7:
				p.ExchangeSets(i, j)
				check(trial, "ExchangeSets", p)
			case 8:
				p.CopyFrom(randomPlan(r, inst))
				check(trial, "CopyFrom", p)
			case 9:
				c := p.Clone()
				c.ReleaseAll(i)
				if p.Owner(b) == Unassigned {
					c.Assign(b, j)
				}
				check(trial, "Clone", c)
				check(trial, "Clone (original)", p)
				if r.Intn(2) == 0 {
					p = c
				}
			}
		}

		tight := zonalInstance(t, r, 1+r.Intn(4), int64(2+r.Intn(15)))
		sets := make([][]int, tight.NumAdvertisers())
		for k := range sets {
			for range 1 + r.Intn(tight.Universe().NumBillboards()) {
				sets[k] = append(sets[k], r.Intn(tight.Universe().NumBillboards()))
			}
		}
		wp := NewPlan(tight)
		applyWarmStart(wp, &WarmStart{Sets: sets})
		check(trial, "warm start", wp)
		for k := range sets {
			warmHeld += wp.SetSize(k)
		}
	}
	if warmHeld == 0 {
		t.Error("no warm start replayed a single billboard")
	}
	for _, op := range []string{"Assign", "Release", "ReleaseAll", "Replace",
		"ExchangeBillboards", "ExchangeSets", "CopyFrom", "Clone", "warm start"} {
		if ops[op] == 0 {
			t.Errorf("%s never ran", op)
		}
	}
}
