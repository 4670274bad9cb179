package coverage

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// gainScan is the reference Gain: a walk over b's coverage list counting
// the IDs one impression short of the threshold. It is the list scan the
// Counter's gain table replaced, kept here as the table's oracle. The
// unweighted loop stays separate from the weighted one, as it was in the
// solver's inner loop.
func gainScan(c *Counter, b int) int {
	gain := 0
	if c.w == nil {
		for _, t := range c.u.lists[b] {
			if c.counts[t] == c.k-1 {
				gain++
			}
		}
		return gain
	}
	for _, t := range c.u.lists[b] {
		if c.counts[t] == c.k-1 {
			gain += int(c.w[t])
		}
	}
	return gain
}

// randomWeightedUniverse builds a corridor-compressed universe with random
// coverage lists over nIDs corridors of weight 1..5.
func randomWeightedUniverse(r *rng.RNG, nIDs, nBB, maxDeg int) *Universe {
	lists := randomUniverse(r, nIDs, nBB, maxDeg).lists
	weights := make([]int32, nIDs)
	total := 0
	for id := range weights {
		weights[id] = int32(1 + r.Intn(5))
		total += int(weights[id])
	}
	u, err := NewWeightedUniverse(total+r.Intn(10), lists, weights)
	if err != nil {
		panic(err)
	}
	return u
}

// checkGainTable compares every non-member's table Gain against both the
// from-scratch impression count and the list-scan oracle.
func checkGainTable(t *testing.T, what string, c *Counter) {
	t.Helper()
	u := c.Universe()
	k := c.Threshold()
	members := c.Members(nil)
	if got, want := c.Covered(), u.UnionCountK(members, k); got != want {
		t.Fatalf("%s: Covered = %d, UnionCountK = %d", what, got, want)
	}
	for b := 0; b < u.NumBillboards(); b++ {
		if c.Has(b) {
			continue
		}
		got := c.Gain(b)
		if want := u.UnionCountK(append(members, b), k) - c.Covered(); got != want {
			t.Fatalf("%s: Gain(%d) = %d, from-scratch %d (k=%d, S=%v)", what, b, got, want, k, members)
		}
		if want := gainScan(c, b); got != want {
			t.Fatalf("%s: Gain(%d) = %d, list scan %d (k=%d, S=%v)", what, b, got, want, k, members)
		}
	}
}

// TestGainTableMatchesOracles drives pairs of counters through random
// sequences of Add, Remove, Reset, CopyFrom and Clone on unweighted,
// weighted and subuniverse substrates for k ∈ {1, 2, 3}, checking both
// counters' gain tables after every operation. Checking both catches a
// Clone or CopyFrom that shares or skips the table; the subuniverse keeps a
// shuffled proper subset of a parent whose index is already built, so
// reusing the parent's index would credit gains to the wrong billboards.
func TestGainTableMatchesOracles(t *testing.T) {
	r := rng.New(20261017)
	substrates := []struct {
		name string
		make func() *Universe
	}{
		{"unweighted", func() *Universe { return randomUniverse(r, 30+r.Intn(60), 4+r.Intn(12), 1+r.Intn(25)) }},
		{"weighted", func() *Universe { return randomWeightedUniverse(r, 20+r.Intn(40), 4+r.Intn(12), 1+r.Intn(20)) }},
		{"subuniverse", func() *Universe {
			parent := randomWeightedUniverse(r, 20+r.Intn(40), 10+r.Intn(8), 1+r.Intn(20))
			NewCounter(parent) // build the parent's index first
			perm := r.Perm(parent.NumBillboards())
			sub, err := parent.Subuniverse(perm[:4+r.Intn(5)])
			if err != nil {
				panic(err)
			}
			return sub
		}},
	}
	for _, s := range substrates {
		for k := 1; k <= 3; k++ {
			for trial := 0; trial < 8; trial++ {
				u := s.make()
				pair := [2]*Counter{NewCounterWithThreshold(u, k), NewCounterWithThreshold(u, k)}
				for step := 0; step < 60; step++ {
					x := r.Intn(2)
					c := pair[x]
					var op string
					switch p := r.Intn(20); {
					case p == 0:
						op = "Reset"
						c.Reset()
					case p == 1:
						op = "CopyFrom"
						c.CopyFrom(pair[1-x])
					case p == 2:
						op = "Clone"
						pair[x] = pair[1-x].Clone()
					default:
						b := r.Intn(u.NumBillboards())
						if c.Has(b) {
							op = fmt.Sprintf("Remove(%d)", b)
							c.Remove(b)
						} else {
							op = fmt.Sprintf("Add(%d)", b)
							c.Add(b)
						}
					}
					for y, c := range pair {
						checkGainTable(t, fmt.Sprintf("%s k=%d trial %d step %d: %s on counter %d, counter %d",
							s.name, k, trial, step, op, x, y), c)
					}
				}
			}
		}
	}
}
