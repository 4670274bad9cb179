package core

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// zonalInstance attaches a ZonalModel to a random instance: billboards are
// partitioned round-robin into the given number of zones and capped at a
// fraction of the total supply, tight enough that the constraint actually
// binds on most draws.
func zonalInstance(t *testing.T, r *rng.RNG, zones int, cap int64) *Instance {
	t.Helper()
	inst := drawInstance(r)
	u := inst.Universe()
	zoneOf := make([]int, u.NumBillboards())
	for b := range zoneOf {
		zoneOf[b] = b % zones
	}
	m, err := NewZonalModel(zoneOf, cap)
	if err != nil {
		t.Fatal(err)
	}
	zi, err := inst.WithModel(m)
	if err != nil {
		t.Fatal(err)
	}
	return zi
}

func TestWithModelValidation(t *testing.T) {
	r := rng.New(5)
	inst := drawInstance(r)
	if _, err := NewZonalModel([]int{0, 1}, 0); err == nil {
		t.Error("NewZonalModel accepted cap 0")
	}
	if _, err := NewZonalModel([]int{0, -1}, 5); err == nil {
		t.Error("NewZonalModel accepted negative zone")
	}
	m, err := NewZonalModel(make([]int, inst.Universe().NumBillboards()+1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.WithModel(m); err == nil {
		t.Error("WithModel accepted a zone partition of the wrong length")
	}
	// nil restores the base model.
	bi, err := inst.WithModel(nil)
	if err != nil {
		t.Fatal(err)
	}
	if bi.Model().Kind() != ModelBase {
		t.Errorf("WithModel(nil) kind %q, want %q", bi.Model().Kind(), ModelBase)
	}
	if inst.Model().Kind() != ModelBase {
		t.Errorf("fresh instance model kind %q, want %q", inst.Model().Kind(), ModelBase)
	}
}

// TestZonalSolversRespectCaps runs all four solvers on zonal instances and
// checks the end-to-end feasibility contract: every returned plan passes the
// model's Validate (no advertiser's per-zone counted influence exceeds the
// cap), at both worker counts, with bit-identical results across them.
func TestZonalSolversRespectCaps(t *testing.T) {
	r := rng.New(321)
	for trial := 0; trial < 10; trial++ {
		inst := zonalInstance(t, r, 3, int64(3+r.Intn(20)))
		solve := func(name string, workers int) *Plan {
			alg, err := AlgorithmByNameOpts(name, LocalSearchOptions{Seed: 7, Restarts: 2, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			return alg.Solve(inst)
		}
		for _, name := range []string{"G-Order", "G-Global", "ALS", "BLS"} {
			p1, p4 := solve(name, 1), solve(name, 4)
			if err := p1.Validate(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if p1.TotalRegret() != p4.TotalRegret() {
				t.Fatalf("trial %d %s: workers=1 regret %v, workers=4 regret %v",
					trial, name, p1.TotalRegret(), p4.TotalRegret())
			}
			for i := 0; i < inst.NumAdvertisers(); i++ {
				if !slices.Equal(p1.Set(i, nil), p4.Set(i, nil)) {
					t.Fatalf("trial %d %s adv %d: worker counts disagree", trial, name, i)
				}
			}
		}
	}
}

// TestZonalFeasibilityHooks pins the hook semantics against a brute-force
// load recount on random plans.
func TestZonalFeasibilityHooks(t *testing.T) {
	r := rng.New(654)
	for trial := 0; trial < 50; trial++ {
		inst := zonalInstance(t, r, 2+r.Intn(4), int64(2+r.Intn(15)))
		m := inst.Model().(*ZonalModel)
		u := inst.Universe()
		// Build a feasible plan greedily with CanAssign as the only guard.
		p := NewPlan(inst)
		for b := 0; b < u.NumBillboards(); b++ {
			i := r.Intn(inst.NumAdvertisers())
			if r.Intn(3) != 0 && m.CanAssign(p, i, b) {
				p.Assign(b, i)
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: CanAssign-guarded plan infeasible: %v", trial, err)
		}
		// CanAssign must agree with "apply then Validate".
		for b := 0; b < u.NumBillboards(); b++ {
			if p.Owner(b) != Unassigned {
				continue
			}
			i := r.Intn(inst.NumAdvertisers())
			allowed := m.CanAssign(p, i, b)
			p.Assign(b, i)
			feasible := m.Validate(p) == nil
			p.Release(b)
			if allowed != feasible {
				t.Fatalf("trial %d: CanAssign(%d,%d)=%v but post-assign Validate says %v",
					trial, i, b, allowed, feasible)
			}
		}
		// CanSwap must agree with "apply then Validate" for owned×free pairs.
		for i := 0; i < inst.NumAdvertisers(); i++ {
			for _, out := range p.Set(i, nil) {
				for b := 0; b < u.NumBillboards(); b++ {
					if p.Owner(b) != Unassigned {
						continue
					}
					allowed := m.CanSwap(p, i, out, b)
					p.Replace(out, b)
					feasible := m.Validate(p) == nil
					p.Replace(b, out)
					if allowed != feasible {
						t.Fatalf("trial %d: CanSwap(%d,%d,%d)=%v but post-swap Validate says %v",
							trial, i, out, b, allowed, feasible)
					}
					break // one free partner per owned billboard keeps this O(n²)
				}
				break // one owned billboard per advertiser
			}
		}
	}
}

// TestModelFeasibilityDownwardClosed: the Model contract says CanAssign and
// CanSwap depend only on S_i and the billboards they name, and that
// feasible sets are downward closed, so once CanAssign rejects billboard b
// for advertiser i, b stays rejected however S_i grows. Release moves rely
// on it to need no hook, and the greedy relies on it to remember
// rejections. Checked for every shipped model on random plans: S_i grows by
// arbitrary (even infeasible) assignments, while between re-checks other
// advertisers gain billboards and are emptied by ReleaseAll — which must
// change no answer for i at all.
func TestModelFeasibilityDownwardClosed(t *testing.T) {
	// answers lists every hook answer about i: CanAssign for each b ∉ S_i,
	// then CanSwap for each (out ∈ S_i, repl ∉ S_i).
	answers := func(p *Plan, i int) []bool {
		m := p.Instance().Model()
		var out []bool
		set := p.Set(i, nil)
		for b := 0; b < p.Instance().Universe().NumBillboards(); b++ {
			if p.Owner(b) == i {
				continue
			}
			out = append(out, m.CanAssign(p, i, b))
			for _, bm := range set {
				out = append(out, m.CanSwap(p, i, bm, b))
			}
		}
		return out
	}
	for _, kind := range []string{ModelBase, ModelZonal} {
		t.Run(kind, func(t *testing.T) {
			r := rng.New(77)
			checked, others := 0, 0
			for trial := 0; trial < 200; trial++ {
				var inst *Instance
				if kind == ModelZonal {
					inst = zonalInstance(t, r, 1+r.Intn(4), int64(2+r.Intn(25)))
				} else {
					inst = drawInstance(r)
				}
				m := inst.Model()
				n := inst.NumAdvertisers()
				p := randomPlan(r, inst)
				i := r.Intn(n)
				var rejected []int
				for b := 0; b < inst.Universe().NumBillboards(); b++ {
					if p.Owner(b) == Unassigned && !m.CanAssign(p, i, b) {
						rejected = append(rejected, b)
					}
				}
				for _, add := range r.Perm(inst.Universe().NumBillboards()) {
					// Other advertisers move first: j gains add or is
					// emptied, and i's answers must not change.
					if j := r.Intn(n); j != i {
						before := answers(p, i)
						if p.Owner(add) == Unassigned && r.Intn(2) == 0 {
							p.Assign(add, j)
						} else {
							p.ReleaseAll(j)
						}
						others++
						if !slices.Equal(answers(p, i), before) {
							t.Fatalf("trial %d adv %d: hook answers changed when advertiser %d's set changed",
								trial, i, j)
						}
					}
					if p.Owner(add) != Unassigned {
						continue
					}
					p.Assign(add, i)
					for _, b := range rejected {
						if p.Owner(b) != Unassigned {
							continue
						}
						checked++
						if m.CanAssign(p, i, b) {
							t.Fatalf("trial %d adv %d: billboard %d rejected, then accepted after assigning %d",
								trial, i, b, add)
						}
					}
				}
			}
			if kind == ModelZonal && checked == 0 {
				t.Fatal("no CanAssign rejection was ever re-checked; the caps never bound")
			}
			t.Logf("%d re-checks of rejected billboards, %d moves of other advertisers", checked, others)
		})
	}
}

// TestZonalPsiExcludesUnassignable pins the zonal ψ refinement: billboards
// whose degree alone exceeds the cap cannot join any feasible set, so they
// must not inflate ψ or the approximation factor.
func TestZonalPsiExcludesUnassignable(t *testing.T) {
	r := rng.New(31)
	inst := drawInstance(r)
	u := inst.Universe()
	maxDeg := 0
	for b := 0; b < u.NumBillboards(); b++ {
		if d := u.Degree(b); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 2 {
		t.Skip("degenerate draw")
	}
	zoneOf := make([]int, u.NumBillboards())
	m, err := NewZonalModel(zoneOf, int64(maxDeg-1)) // excludes the max-degree billboard
	if err != nil {
		t.Fatal(err)
	}
	zi, err := inst.WithModel(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inst.NumAdvertisers(); i++ {
		if zp, bp := Psi(zi, i), Psi(inst, i); zp >= bp {
			t.Fatalf("adv %d: zonal ψ %v not below base ψ %v", i, zp, bp)
		}
	}
}

// TestModelKindStrings pins the wire names the catalog, cache key and
// metrics label all share.
func TestModelKindStrings(t *testing.T) {
	if got := (BaseModel{}).Kind(); got != "base" {
		t.Errorf("BaseModel kind %q", got)
	}
	m, err := NewZonalModel([]int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Kind(); got != "zonal" {
		t.Errorf("ZonalModel kind %q", got)
	}
	if m.Zones() != 1 || m.Cap() != 1 || m.ZoneOf(0) != 0 {
		t.Errorf("accessors: zones %d cap %d zone(0) %d", m.Zones(), m.Cap(), m.ZoneOf(0))
	}
	var _ Assignment = (*Plan)(nil)
	var _ Model = BaseModel{}
	var _ Model = (*ZonalModel)(nil)
}
