package influence

import (
	"sort"

	"repro/internal/coverage"
)

// Distribution computes the series plotted in Figure 1 of the paper.

// SortedInfluences returns every billboard's individual influence I({o}) in
// descending order.
func SortedInfluences(u *coverage.Universe) []int {
	out := make([]int, u.NumBillboards())
	for b := range out {
		out[b] = u.Degree(b)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// NormalizedInfluenceCurve returns Figure 1a's series: the proportion of
// each billboard's influence over the maximum influence, with billboards
// sorted by descending influence. Empty universes yield an empty slice.
func NormalizedInfluenceCurve(u *coverage.Universe) []float64 {
	infl := SortedInfluences(u)
	if len(infl) == 0 || infl[0] == 0 {
		return make([]float64, len(infl))
	}
	max := float64(infl[0])
	out := make([]float64, len(infl))
	for i, v := range infl {
		out[i] = float64(v) / max
	}
	return out
}

// ImpressionCurve returns Figure 1b's series: for each requested fraction
// f ∈ [0, 1] of billboards (taken in descending influence order), the
// fraction of all trajectories covered by that prefix ("impression
// count / total trajectory count").
func ImpressionCurve(u *coverage.Universe, fractions []float64) []float64 {
	order := billboardsByInfluence(u)
	out := make([]float64, len(fractions))
	if u.NumTrajectories() == 0 || len(order) == 0 {
		return out
	}
	// Evaluate incrementally: fractions are processed in ascending order
	// via an index sort, marking coverage IDs as their prefix grows and
	// adding each ID's weight the first time it is marked.
	idx := make([]int, len(fractions))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return fractions[idx[a]] < fractions[idx[b]] })

	seen := make([]bool, u.NumIDs())
	covered := 0
	taken := 0
	total := float64(u.NumTrajectories())
	for _, fi := range idx {
		want := int(fractions[fi] * float64(len(order)))
		if want > len(order) {
			want = len(order)
		}
		for taken < want {
			for _, id := range u.List(order[taken]) {
				if !seen[id] {
					seen[id] = true
					covered += u.Weight(id)
				}
			}
			taken++
		}
		out[fi] = float64(covered) / total
	}
	return out
}

// billboardsByInfluence returns billboard IDs sorted by descending
// individual influence (ties broken by ID for determinism).
func billboardsByInfluence(u *coverage.Universe) []int {
	order := make([]int, u.NumBillboards())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := u.Degree(order[a]), u.Degree(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	return order
}

// OverlapRatio quantifies how much the top-k billboards' coverage overlaps:
// 1 − |union| / Σ|individual|. 0 means disjoint coverage; values near 1 mean
// heavy overlap. The paper's NYC dataset exhibits much higher overlap than
// SG (Figure 1b discussion); dataset generator tests assert this property.
func OverlapRatio(u *coverage.Universe, k int) float64 {
	order := billboardsByInfluence(u)
	if k > len(order) {
		k = len(order)
	}
	if k <= 0 {
		return 0
	}
	sum := 0
	for _, b := range order[:k] {
		sum += u.Degree(b)
	}
	if sum == 0 {
		return 0
	}
	union := u.UnionCount(order[:k])
	return 1 - float64(union)/float64(sum)
}
