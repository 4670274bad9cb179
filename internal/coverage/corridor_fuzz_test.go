package coverage

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// decodeCorridorCase builds a small raw universe and chunk boundaries from
// fuzz bytes: data[0] picks the billboard count (1–6), data[1] the
// trajectory count (1–40), data[2:4] a 16-bit mask whose bit t%16 ends a
// chunk after trajectory t, and each later byte v at index i adds
// trajectory v%n to billboard i%nBB's list.
func decodeCorridorCase(data []byte) (u *Universe, cuts []int, ok bool) {
	if len(data) < 4 {
		return nil, nil, false
	}
	nBB := 1 + int(data[0])%6
	n := 1 + int(data[1])%40
	mask := uint16(data[2]) | uint16(data[3])<<8
	raw := make([][]int32, nBB)
	for i, v := range data[4:] {
		raw[i%nBB] = append(raw[i%nBB], int32(int(v)%n))
	}
	lists := make([]List, nBB)
	for b := range lists {
		lists[b] = NewList(raw[b])
	}
	for t := 0; t < n-1; t++ {
		if mask>>(t%16)&1 == 1 {
			cuts = append(cuts, t+1)
		}
	}
	return MustUniverse(n, lists), append(cuts, n), true
}

// feedChunks feeds u's coverage to a fresh assigner in the chunks that end
// at cuts, each with chunk-local trajectory IDs.
func feedChunks(t *testing.T, u *Universe, cuts []int) *Universe {
	a := NewCorridorAssigner(u.NumBillboards())
	lo := 0
	for _, hi := range cuts {
		chunk := make([]List, u.NumBillboards())
		for b := range chunk {
			for _, id := range u.List(b) {
				if int(id) >= lo && int(id) < hi {
					chunk[b] = append(chunk[b], id-int32(lo))
				}
			}
		}
		a.AddChunk(chunk, hi-lo)
		lo = hi
	}
	cu, _, err := a.Universe(u.NumTrajectories())
	if err != nil {
		t.Fatal(err)
	}
	return cu
}

// FuzzCorridorAssigner checks the corridor assigner on fuzz-built raw
// universes cut into fuzz-chosen chunks: the chunked feed must build the
// same universe as the one-shot feed Compress makes; the weighted
// UnionCount of every billboard set must equal the raw count; and
// corridor signatures must strictly ascend with corridor ID.
func FuzzCorridorAssigner(f *testing.F) {
	for _, seed := range corridorSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		u, cuts, ok := decodeCorridorCase(data)
		if !ok {
			return
		}
		whole, _ := Compress(u)
		chunked := feedChunks(t, u, cuts)
		if chunked.NumIDs() != whole.NumIDs() {
			t.Fatalf("chunks %v: %d corridors, one-shot %d (data=%v)", cuts, chunked.NumIDs(), whole.NumIDs(), data)
		}
		for id := int32(0); int(id) < whole.NumIDs(); id++ {
			if chunked.Weight(id) != whole.Weight(id) {
				t.Fatalf("chunks %v: corridor %d weight %d, one-shot %d (data=%v)", cuts, id, chunked.Weight(id), whole.Weight(id), data)
			}
		}
		for b := 0; b < u.NumBillboards(); b++ {
			if !slices.Equal(chunked.List(b), whole.List(b)) {
				t.Fatalf("chunks %v: List(%d) = %v, one-shot %v (data=%v)", cuts, b, chunked.List(b), whole.List(b), data)
			}
		}
		for mask := 0; mask < 1<<u.NumBillboards(); mask++ {
			var set []int
			for b := 0; b < u.NumBillboards(); b++ {
				if mask>>b&1 == 1 {
					set = append(set, b)
				}
			}
			if got, want := whole.UnionCount(set), u.UnionCount(set); got != want {
				t.Fatalf("UnionCount(%v) = %d, raw %d (data=%v)", set, got, want, data)
			}
		}
		for id := int32(1); int(id) < whole.NumIDs(); id++ {
			if prev, sig := Signature(whole, id-1), Signature(whole, id); slices.Compare(prev, sig) >= 0 {
				t.Fatalf("corridor %d signature %v does not follow corridor %d's %v (data=%v)", id, sig, id-1, prev, data)
			}
		}
	})
}

// corridorSeeds hand-picks inputs covering one chunk, a chunk per
// trajectory, uncovered trajectories, identical lists, nested signatures
// (a prefix sorts first) and a class whose first trajectory comes late.
func corridorSeeds() [][]byte {
	return [][]byte{
		// 2 billboards, 10 trajectories, one chunk, disjoint lists.
		{1, 9, 0x00, 0x00, 1, 2, 3, 4, 5, 6},
		// 3 billboards, 12 trajectories, a chunk per trajectory.
		{2, 11, 0xff, 0xff, 0, 0, 0, 1, 1, 2, 5, 5, 5, 7, 8, 9},
		// 4 billboards with identical coverage: one corridor.
		{3, 7, 0x55, 0x00, 3, 3, 3, 3, 4, 4, 4, 4},
		// Nested signatures {0} ⊂ {0,1} ⊂ {0,1,2}, chunk cuts mid-class.
		{2, 20, 0x24, 0x81, 1, 2, 3, 2, 3, 4, 3, 4, 5, 19, 18, 17},
		// 6 billboards over 40 trajectories, sparse cuts.
		{5, 39, 0x10, 0x04, 39, 1, 20, 33, 2, 11, 7, 39, 20, 1, 12, 30, 28, 6, 5, 39, 0, 21},
	}
}

// TestRegenerateFuzzCorridorCorpus rewrites
// testdata/fuzz/FuzzCorridorAssigner with UPDATE_FUZZ_CORPUS=1; otherwise
// it fails if the checked-in corpus went missing.
func TestRegenerateFuzzCorridorCorpus(t *testing.T) {
	checkFuzzCorpus(t, "FuzzCorridorAssigner", corridorSeeds())
}

// checkFuzzCorpus writes seeds as target's checked-in corpus when
// UPDATE_FUZZ_CORPUS is set, and otherwise fails if that corpus is missing.
func checkFuzzCorpus(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if os.Getenv("UPDATE_FUZZ_CORPUS") == "" {
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) == 0 {
			t.Fatalf("fuzz seed corpus %s missing; regenerate with UPDATE_FUZZ_CORPUS=1 go test -run TestRegenerate", dir)
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
