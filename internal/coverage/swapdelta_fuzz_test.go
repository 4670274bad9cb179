package coverage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// decodeSwapCase deterministically builds a universe, a counter state and a
// swap (out, in) pair from fuzz bytes. Returns ok=false when the bytes
// cannot yield a legal swap (no member or no non-member).
func decodeSwapCase(data []byte) (c *Counter, out, in int, ok bool) {
	if len(data) < 4 {
		return nil, 0, 0, false
	}
	const nBB = 6
	nTraj := 1 + int(data[0])%48
	k := 1 + int(data[1])%3
	memberMask := data[2]
	sel := data[3]
	raw := make([][]int32, nBB)
	for i, v := range data[4:] {
		raw[i%nBB] = append(raw[i%nBB], int32(int(v)%nTraj))
	}
	lists := make([]List, nBB)
	for b := range lists {
		lists[b] = NewList(raw[b])
	}
	c = NewCounterWithThreshold(MustUniverse(nTraj, lists), k)
	var members, rest []int
	for b := 0; b < nBB; b++ {
		if memberMask>>uint(b)&1 == 1 {
			c.Add(b)
			members = append(members, b)
		} else {
			rest = append(rest, b)
		}
	}
	if len(members) == 0 || len(rest) == 0 {
		return nil, 0, 0, false
	}
	return c, members[int(sel&0x0f)%len(members)], rest[int(sel>>4)%len(rest)], true
}

// FuzzSwapDeltaMerge cross-checks Counter.SwapDelta's linear merge walk
// against two independent oracles on fuzz-built universes and thresholds:
// a binary-search formulation (List.Contains, skipping shared
// trajectories) and the ground truth of mutating a cloned counter. The
// query must also leave the counter untouched. The same case checks the
// gain table: Gain(in) must equal the coverage a clone gains by adding in.
func FuzzSwapDeltaMerge(f *testing.F) {
	for _, seed := range swapDeltaSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, out, in, ok := decodeSwapCase(data)
		if !ok {
			return
		}
		before := c.Covered()
		got := c.SwapDelta(out, in)

		// Oracle 1: per-trajectory binary search, skipping trajectories
		// covered by both billboards (their impression count is unchanged).
		outList, inList := c.Universe().List(out), c.Universe().List(in)
		want := 0
		for _, tr := range outList {
			if inList.Contains(tr) {
				continue
			}
			if c.counts[tr] == c.k {
				want--
			}
		}
		for _, tr := range inList {
			if outList.Contains(tr) {
				continue
			}
			if c.counts[tr] == c.k-1 {
				want++
			}
		}
		if got != want {
			t.Fatalf("SwapDelta(%d, %d) = %d, binary-search oracle %d (k=%d, data=%v)",
				out, in, got, want, c.k, data)
		}

		// Oracle 2: actually perform the swap on a clone.
		cl := c.Clone()
		cl.Remove(out)
		cl.Add(in)
		if truth := cl.Covered() - before; got != truth {
			t.Fatalf("SwapDelta(%d, %d) = %d, mutation ground truth %d (k=%d, data=%v)",
				out, in, got, truth, c.k, data)
		}

		// The gain table must agree with actually adding in to a clone.
		gl := c.Clone()
		gl.Add(in)
		if got, truth := c.Gain(in), gl.Covered()-before; got != truth {
			t.Fatalf("Gain(%d) = %d, mutation ground truth %d (k=%d, data=%v)",
				in, got, truth, c.k, data)
		}

		// The query is advertised as non-mutating.
		if c.Covered() != before {
			t.Fatalf("SwapDelta mutated the counter: covered %d -> %d", before, c.Covered())
		}
	})
}

// swapDeltaSeeds hand-picks inputs that exercise every merge-walk branch:
// disjoint lists, identical lists, partial overlap, k>1, and tails where
// one list outlives the other.
func swapDeltaSeeds() [][]byte {
	return [][]byte{
		// nTraj=11, k=1, members={0}, swap 0 for 1; disjoint short lists.
		{10, 0, 0x01, 0x00, 1, 2, 3, 4, 5, 6},
		// Identical coverage for every billboard (delta must be 0).
		{10, 0, 0x03, 0x00, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7},
		// k=2 with heavy overlap across members.
		{20, 1, 0x07, 0x10, 3, 3, 3, 9, 9, 9, 14, 14, 14, 3, 9, 14},
		// Long in-list tail after the out-list is exhausted.
		{40, 0, 0x01, 0x00, 1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 2, 6},
		// Everything assigned except one billboard; k=3.
		{30, 2, 0x3e, 0x21, 8, 8, 8, 8, 8, 16, 16, 16, 16, 16, 24, 24},
	}
}

// TestRegenerateFuzzSwapCorpus mirrors core's corpus regeneration: with
// UPDATE_FUZZ_CORPUS=1 it rewrites testdata/fuzz/FuzzSwapDeltaMerge;
// otherwise it fails if the checked-in corpus went missing.
func TestRegenerateFuzzSwapCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSwapDeltaMerge")
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
	for i, seed := range swapDeltaSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
