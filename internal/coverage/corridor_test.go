package coverage

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

func TestCompressGroupsIdenticalSignatures(t *testing.T) {
	// Trajectories 0,2,4 share signature {0,1}; 1,3 share {1}; 5 has {2};
	// 6..9 are uncovered. Expect 3 corridors ordered by smallest member.
	u := mustU(t, 10, []List{
		{0, 2, 4},       // billboard 0
		{0, 1, 2, 3, 4}, // billboard 1
		{5},             // billboard 2
		{},              // billboard 3
	})
	cu, stats := Compress(u)
	if stats.Corridors != 3 || stats.Covered != 6 || stats.RawTrajectories != 10 {
		t.Fatalf("stats = %+v", stats)
	}
	if cu.NumTrajectories() != 10 || cu.NumIDs() != 3 {
		t.Fatalf("dims %d/%d", cu.NumTrajectories(), cu.NumIDs())
	}
	// Corridor 0 = {0,2,4} (rep 0, weight 3), corridor 1 = {1,3} (rep 1,
	// weight 2), corridor 2 = {5} (rep 5, weight 1).
	for id, want := range []int{3, 2, 1} {
		if got := cu.Weight(int32(id)); got != want {
			t.Errorf("Weight(%d) = %d, want %d", id, got, want)
		}
	}
	wantLists := []List{{0}, {0, 1}, {2}, {}}
	for b, want := range wantLists {
		if !slices.Equal(cu.List(b), want) {
			t.Errorf("List(%d) = %v, want %v", b, cu.List(b), want)
		}
	}
	if got := cu.UnionCount([]int{0}); got != 3 {
		t.Errorf("UnionCount({0}) = %d, want 3", got)
	}
	if got := cu.UnionCount([]int{0, 1, 2}); got != 6 {
		t.Errorf("UnionCount(all) = %d, want 6", got)
	}
}

func TestCompressPreservesAllInfluenceQuantities(t *testing.T) {
	r := rng.New(20260807)
	for trial := 0; trial < 25; trial++ {
		// Low trajectory count relative to degrees yields many duplicate
		// signatures, so compression genuinely collapses classes.
		u := randomUniverse(r, 60+r.Intn(140), 4+r.Intn(20), 1+r.Intn(50))
		cu, stats := Compress(u)
		if stats.Corridors > stats.Covered || stats.Covered > stats.RawTrajectories {
			t.Fatalf("inconsistent stats %+v", stats)
		}
		if cu.NumTrajectories() != u.NumTrajectories() {
			t.Fatalf("raw |T| changed: %d != %d", cu.NumTrajectories(), u.NumTrajectories())
		}
		if cu.MaxDegree() != u.MaxDegree() || cu.TotalSupply() != u.TotalSupply() {
			t.Fatalf("MaxDegree/TotalSupply changed: %d/%d != %d/%d",
				cu.MaxDegree(), cu.TotalSupply(), u.MaxDegree(), u.TotalSupply())
		}
		for b := 0; b < u.NumBillboards(); b++ {
			if cu.Degree(b) != u.Degree(b) {
				t.Fatalf("Degree(%d): %d != %d", b, cu.Degree(b), u.Degree(b))
			}
		}
		// Random subsets: union influence must match exactly, for both the
		// plain and the k-threshold evaluators.
		for q := 0; q < 20; q++ {
			var set []int
			for b := 0; b < u.NumBillboards(); b++ {
				if r.Intn(3) == 0 {
					set = append(set, b)
				}
			}
			if got, want := cu.UnionCount(set), u.UnionCount(set); got != want {
				t.Fatalf("UnionCount(%v): %d != %d", set, got, want)
			}
			k := 1 + r.Intn(3)
			if got, want := cu.UnionCountK(set, k), u.UnionCountK(set, k); got != want {
				t.Fatalf("UnionCountK(%v, %d): %d != %d", set, k, got, want)
			}
		}
	}
}

func TestCompressedCounterMatchesDenseCounter(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		u := randomUniverse(r, 80+r.Intn(120), 6+r.Intn(14), 1+r.Intn(40))
		cu, _ := Compress(u)
		dc := NewCounter(u)
		cc := NewCounter(cu)
		for step := 0; step < 300; step++ {
			b := r.Intn(u.NumBillboards())
			if dc.Has(b) != cc.Has(b) {
				t.Fatalf("membership diverged at billboard %d", b)
			}
			if dc.Has(b) {
				if got, want := cc.Loss(b), dc.Loss(b); got != want {
					t.Fatalf("Loss(%d): %d != %d", b, got, want)
				}
				// Exercise SwapDelta against a random non-member.
				if in := r.Intn(u.NumBillboards()); !dc.Has(in) {
					if got, want := cc.SwapDelta(b, in), dc.SwapDelta(b, in); got != want {
						t.Fatalf("SwapDelta(%d,%d): %d != %d", b, in, got, want)
					}
				}
				dc.Remove(b)
				cc.Remove(b)
			} else {
				if got, want := cc.Gain(b), dc.Gain(b); got != want {
					t.Fatalf("Gain(%d): %d != %d", b, got, want)
				}
				dc.Add(b)
				cc.Add(b)
			}
			if dc.Covered() != cc.Covered() {
				t.Fatalf("Covered: dense %d, compressed %d", dc.Covered(), cc.Covered())
			}
			// Route the walk through Clone and CopyFrom periodically: a
			// clone that dropped the weight table would silently revert to
			// unit counting (the BLS trial-plan path hits exactly this).
			if step%37 == 17 {
				cc = cc.Clone()
			}
			if step%53 == 29 {
				fresh := NewCounter(cu)
				fresh.CopyFrom(cc)
				cc = fresh
			}
		}
	}
}

func TestCompressDeterministicAndIdempotent(t *testing.T) {
	r := rng.New(7)
	u := randomUniverse(r, 300, 25, 60)
	cu1, s1 := Compress(u)
	cu2, s2 := Compress(u)
	if s1 != s2 {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	if cu1.NumIDs() != cu2.NumIDs() {
		t.Fatalf("corridor counts differ")
	}
	for b := 0; b < cu1.NumBillboards(); b++ {
		if !slices.Equal(cu1.List(b), cu2.List(b)) {
			t.Fatalf("List(%d) not deterministic", b)
		}
	}
	for id := 0; id < cu1.NumIDs(); id++ {
		if cu1.Weight(int32(id)) != cu2.Weight(int32(id)) {
			t.Fatalf("Weight(%d) not deterministic", id)
		}
	}
	// Compressing a compressed universe is the identity.
	cu3, s3 := Compress(cu1)
	if cu3 != cu1 {
		t.Fatal("re-compression did not return the same universe")
	}
	if s3.Corridors != s1.Corridors || s3.RawTrajectories != s1.RawTrajectories {
		t.Fatalf("re-compression stats %+v, want %+v", s3, s1)
	}
}

func TestWeightedSubuniverseCarriesWeights(t *testing.T) {
	r := rng.New(13)
	u := randomUniverse(r, 200, 20, 50)
	cu, _ := Compress(u)
	keep := []int{3, 7, 11, 19}
	subDense, err := u.Subuniverse(keep)
	if err != nil {
		t.Fatal(err)
	}
	subComp, err := cu.Subuniverse(keep)
	if err != nil {
		t.Fatal(err)
	}
	if !subComp.Weighted() {
		t.Fatal("compressed subuniverse lost its weights")
	}
	if subComp.MaxDegree() != subDense.MaxDegree() || subComp.TotalSupply() != subDense.TotalSupply() {
		t.Fatalf("sub MaxDegree/TotalSupply: %d/%d != %d/%d",
			subComp.MaxDegree(), subComp.TotalSupply(), subDense.MaxDegree(), subDense.TotalSupply())
	}
	for i := range keep {
		if subComp.Degree(i) != subDense.Degree(i) {
			t.Fatalf("sub Degree(%d): %d != %d", i, subComp.Degree(i), subDense.Degree(i))
		}
	}
	for q := 0; q < 10; q++ {
		set := []int{r.Intn(len(keep)), r.Intn(len(keep))}
		if set[0] == set[1] {
			set = set[:1]
		}
		if got, want := subComp.UnionCount(set), subDense.UnionCount(set); got != want {
			t.Fatalf("sub UnionCount(%v): %d != %d", set, got, want)
		}
	}
}

func TestNewWeightedUniverseValidation(t *testing.T) {
	if _, err := NewWeightedUniverse(-1, nil, nil); err == nil {
		t.Error("negative trajectory count accepted")
	}
	if _, err := NewWeightedUniverse(10, []List{{0}}, []int32{0}); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := NewWeightedUniverse(3, []List{{0, 1}}, []int32{2, 2}); err == nil {
		t.Error("weights exceeding |T| accepted")
	}
	if _, err := NewWeightedUniverse(10, []List{{1}}, []int32{5}); err == nil {
		t.Error("out-of-range corridor ID accepted")
	}
	u, err := NewWeightedUniverse(10, []List{{0, 1}, {1}}, []int32{4, 5})
	if err != nil {
		t.Fatalf("valid weighted universe rejected: %v", err)
	}
	if u.Degree(0) != 9 || u.Degree(1) != 5 || u.MaxDegree() != 9 || u.TotalSupply() != 14 {
		t.Fatalf("weighted accessors wrong: %d/%d/%d/%d",
			u.Degree(0), u.Degree(1), u.MaxDegree(), u.TotalSupply())
	}
	if u.NumTrajectories() != 10 || u.NumIDs() != 2 {
		t.Fatalf("dims %d/%d", u.NumTrajectories(), u.NumIDs())
	}
}

// TestCorridorAssignerNeverMergesOnHashCollision feeds signatures that all
// share one hash value: distinct signatures must still get distinct
// corridors, and a repeat must find its own class behind the colliding ones.
func TestCorridorAssignerNeverMergesOnHashCollision(t *testing.T) {
	a := NewCorridorAssigner(3)
	for _, sig := range [][]int32{{0}, {1, 2}, {0}, {0, 1}, {1, 2}, {1, 2}} {
		a.add(sig, 42)
	}
	a.rawHits = []int{3, 4, 3} // AddChunk keeps this tally; add does not
	u, stats, err := a.Universe(6)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corridors != 3 || stats.Covered != 6 {
		t.Fatalf("stats %+v, want 3 corridors over 6 covered", stats)
	}
	for id, want := range []int{2, 3, 1} {
		if got := u.Weight(int32(id)); got != want {
			t.Errorf("Weight(%d) = %d, want %d", id, got, want)
		}
	}
	for b, want := range []List{{0, 2}, {1, 2}, {1}} {
		if !slices.Equal(u.List(b), want) {
			t.Errorf("List(%d) = %v, want %v", b, u.List(b), want)
		}
	}
}
