// Package coverage represents which trajectories each billboard influences
// and evaluates the influence I(S) of billboard sets, both from scratch and
// incrementally.
//
// Under the paper's influence model (§7.1.2) a billboard o influences a
// trajectory t iff some point of t lies within λ meters of o, and the
// influence of a set S is the number of distinct trajectories influenced by
// at least one member:
//
//	I(S) = Σ_t [1 − Π_{o∈S}(1 − I(o,t))] = |⋃_{o∈S} cover(o)|
//
// because I(o,t) ∈ {0,1}. All four MROAM algorithms spend nearly all their
// time asking "what does adding/removing/swapping one billboard do to I(S_i)?"
// The Counter type answers those queries incrementally by maintaining, for
// one advertiser's set, a per-trajectory multiset count of how many assigned
// billboards cover it, plus a per-billboard table of marginal gains. The
// greedy's most frequent query, Gain, is then an O(1) table read; Add and
// Remove pay for it by updating the table through an inverted
// (coverage ID → billboards) index whenever an ID's count crosses the
// threshold. Loss and SwapDelta walk the coverage lists in O(deg(o)).
package coverage

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/bitset"
)

// List is the set of coverage IDs covered by one billboard, sorted
// ascending with no duplicates. In an uncompressed universe the IDs are
// trajectory IDs; in a corridor-compressed universe (see Compress) they are
// corridor IDs.
type List []int32

// NewList sorts and deduplicates ids into a valid List. The input slice may
// be reused as backing storage.
func NewList(ids []int32) List {
	slices.Sort(ids)
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return List(out)
}

// Contains reports whether the list covers trajectory id, by binary search.
func (l List) Contains(id int32) bool {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= id })
	return i < len(l) && l[i] == id
}

// Universe holds the coverage lists of every billboard in a dataset together
// with the trajectory count. It is immutable after construction and shared by
// all Counters, algorithms and experiments that operate on the dataset.
//
// A universe may be corridor-compressed (see Compress): coverage IDs then
// name corridors — groups of trajectories with identical coverage — and
// weights[id] counts the trajectories collapsed into each. Every influence
// quantity (Degree, MaxDegree, TotalSupply, UnionCount, Counter results) is
// expressed in raw trajectories in both forms, so algorithms never need to
// know which substrate they run on: the weighted sums are bit-identical to
// the uncompressed answers by construction.
type Universe struct {
	numTrajectories int // raw trajectory total |T|, the paper's universe size
	numIDs          int // coverage ID space; == numTrajectories when unweighted
	lists           []List
	weights         []int32 // weights[id] ≥ 1, raw trajectories per ID; nil = all 1
	degrees         []int   // weighted Degree per billboard; nil = len(lists[b])
	maxDegree       int
	totalSupply     int64

	// The inverted index is built on the first NewCounter or BuildIndex,
	// so universes that are only ever queried from scratch (UnionCount
	// and friends) never pay for it.
	indexOnce sync.Once
	index     invertedIndex
}

// invertedIndex is the CSR inverse of a universe's coverage lists: the
// billboards covering coverage ID t are boards[start[t]:start[t+1]], in
// ascending order. Counters walk it to update their gain tables.
type invertedIndex struct {
	start  []int32
	boards []int32
}

// BuildIndex builds the inverted index that every Counter over u shares,
// unless it is built already. NewCounter builds it on first use; calling
// BuildIndex ahead of time keeps that one-off cost (tens of milliseconds
// for a few million coverage entries) out of the first counter's caller —
// core.NewInstance does, so a deadline-bound solve never pays it.
func (u *Universe) BuildIndex() { u.inverted() }

// inverted returns the universe's inverted index, building it on first use.
// It is safe for concurrent use; the index is immutable once built.
func (u *Universe) inverted() *invertedIndex {
	u.indexOnce.Do(func() {
		entries := 0
		for _, l := range u.lists {
			entries += len(l)
		}
		if entries > math.MaxInt32 {
			panic(fmt.Sprintf("coverage: %d coverage entries overflow the inverted index", entries))
		}
		start := make([]int32, u.numIDs+1)
		for _, l := range u.lists {
			for _, t := range l {
				start[t+1]++
			}
		}
		for t := 0; t < u.numIDs; t++ {
			start[t+1] += start[t]
		}
		next := slices.Clone(start[:u.numIDs])
		boards := make([]int32, entries)
		for b, l := range u.lists {
			for _, t := range l {
				boards[next[t]] = int32(b)
				next[t]++
			}
		}
		u.index = invertedIndex{start: start, boards: boards}
	})
	return &u.index
}

// NewUniverse constructs a Universe over numTrajectories trajectories with
// the given per-billboard coverage lists. It returns an error if any list is
// unsorted, contains duplicates, or references a trajectory out of range.
func NewUniverse(numTrajectories int, lists []List) (*Universe, error) {
	if numTrajectories < 0 {
		return nil, fmt.Errorf("coverage: negative trajectory count %d", numTrajectories)
	}
	if err := validateLists(lists, numTrajectories); err != nil {
		return nil, err
	}
	u := &Universe{numTrajectories: numTrajectories, numIDs: numTrajectories, lists: lists}
	for _, l := range lists {
		if len(l) > u.maxDegree {
			u.maxDegree = len(l)
		}
		u.totalSupply += int64(len(l))
	}
	return u, nil
}

// NewWeightedUniverse constructs a corridor-compressed Universe: lists hold
// corridor IDs in [0, len(weights)), and weights[id] is the number of raw
// trajectories collapsed into corridor id. numTrajectories remains the raw
// total (corridor weights need not sum to it — trajectories covered by no
// billboard have no corridor). Influence accessors return weighted values.
func NewWeightedUniverse(numTrajectories int, lists []List, weights []int32) (*Universe, error) {
	if numTrajectories < 0 {
		return nil, fmt.Errorf("coverage: negative trajectory count %d", numTrajectories)
	}
	if err := validateLists(lists, len(weights)); err != nil {
		return nil, err
	}
	var sum int64
	for id, w := range weights {
		if w < 1 {
			return nil, fmt.Errorf("coverage: corridor %d has weight %d < 1", id, w)
		}
		sum += int64(w)
	}
	if sum > int64(numTrajectories) {
		return nil, fmt.Errorf("coverage: corridor weights sum to %d, universe has %d trajectories", sum, numTrajectories)
	}
	u := &Universe{
		numTrajectories: numTrajectories,
		numIDs:          len(weights),
		lists:           lists,
		weights:         weights,
		degrees:         make([]int, len(lists)),
	}
	for b, l := range lists {
		d := 0
		for _, id := range l {
			d += int(weights[id])
		}
		u.degrees[b] = d
		if d > u.maxDegree {
			u.maxDegree = d
		}
		u.totalSupply += int64(d)
	}
	return u, nil
}

// validateLists checks every list is sorted, duplicate-free, and references
// IDs inside [0, numIDs).
func validateLists(lists []List, numIDs int) error {
	for b, l := range lists {
		for i, id := range l {
			if id < 0 || int(id) >= numIDs {
				return fmt.Errorf("coverage: billboard %d covers ID %d, universe has %d", b, id, numIDs)
			}
			if i > 0 && l[i-1] >= id {
				return fmt.Errorf("coverage: billboard %d list unsorted or duplicated at index %d", b, i)
			}
		}
	}
	return nil
}

// MustUniverse is NewUniverse that panics on error, for tests and generators
// that construct lists they know to be valid.
func MustUniverse(numTrajectories int, lists []List) *Universe {
	u, err := NewUniverse(numTrajectories, lists)
	if err != nil {
		panic(err)
	}
	return u
}

// NumTrajectories returns the number of raw trajectories in the universe —
// the paper's |T|. Corridor compression never changes this value.
func (u *Universe) NumTrajectories() int { return u.numTrajectories }

// NumIDs returns the size of the coverage ID space: the value to size
// per-ID scratch arrays and bitsets by. It equals NumTrajectories for an
// uncompressed universe and the corridor count for a compressed one.
func (u *Universe) NumIDs() int { return u.numIDs }

// Weighted reports whether the universe is corridor-compressed.
func (u *Universe) Weighted() bool { return u.weights != nil }

// Weight returns the number of raw trajectories behind coverage ID id
// (1 for every ID of an uncompressed universe).
func (u *Universe) Weight(id int32) int {
	if u.weights == nil {
		return 1
	}
	return int(u.weights[id])
}

// NumBillboards returns the number of billboards in the universe.
func (u *Universe) NumBillboards() int { return len(u.lists) }

// List returns the coverage list of billboard b. The returned slice must not
// be modified.
func (u *Universe) List(b int) List { return u.lists[b] }

// Degree returns |cover(b)| in raw trajectories — I({b}), the influence of
// the single billboard — regardless of substrate.
func (u *Universe) Degree(b int) int {
	if u.degrees == nil {
		return len(u.lists[b])
	}
	return u.degrees[b]
}

// MaxDegree returns the largest single-billboard influence max_o I({o}),
// precomputed at construction. The lazy-greedy selection uses it to decide
// whether any billboard could cross an advertiser's remaining demand.
func (u *Universe) MaxDegree() int { return u.maxDegree }

// TotalSupply returns I* = Σ_o I({o}), the host's supply as defined for the
// demand-supply ratio α (§7.1.3). Note this sums individual influences and
// intentionally double-counts overlap, exactly as the paper defines I*.
func (u *Universe) TotalSupply() int64 { return u.totalSupply }

// UnionCount returns I(S) = |⋃_{b∈S} cover(b)| in raw trajectories,
// computed from scratch. Counters are faster for incremental work; this is
// the reference evaluator and the right tool for one-shot queries. The
// union is taken in the compressed substrate (roaring-style containers), so
// the scratch cost scales with the IDs actually covered, not the ID space.
func (u *Universe) UnionCount(billboards []int) int {
	un := u.UnionCompressed(billboards)
	if u.weights == nil {
		return un.Count()
	}
	total := 0
	un.Range(func(id int) bool {
		total += int(u.weights[id])
		return true
	})
	return total
}

// UnionCompressed returns the union coverage of the given billboards as a
// compressed set over the universe's ID space.
func (u *Universe) UnionCompressed(billboards []int) *bitset.Compressed {
	un := bitset.NewCompressed()
	for _, b := range billboards {
		un.Or(bitset.FromSortedIDs(u.lists[b]))
	}
	return un
}

// UnionBitset returns the union coverage of the given billboards as a dense
// bitset sized to the universe's ID space. Use WeightSum to convert a set of
// coverage IDs into raw trajectories.
func (u *Universe) UnionBitset(billboards []int) *bitset.Set {
	bs := bitset.New(u.numIDs)
	for _, b := range billboards {
		bs.SetIDs(u.lists[b])
	}
	return bs
}

// WeightSum returns the raw-trajectory total behind the set bits of bs,
// which must be sized to the universe's ID space. For an uncompressed
// universe this is bs.Count().
func (u *Universe) WeightSum(bs *bitset.Set) int {
	if u.weights == nil {
		return bs.Count()
	}
	total := 0
	bs.Range(func(id int) bool {
		total += int(u.weights[id])
		return true
	})
	return total
}

// Counter incrementally tracks I(S) for one mutable billboard set S.
//
// Besides the per-ID impression counts it keeps a gain table:
// gains[b] = Σ weight(t) over t ∈ cover(b) with counts[t] = k−1, which is
// I_k(S ∪ {b}) − I_k(S) for every non-member b. Gain is therefore O(1).
// Adding or removing b costs O(deg(b) + Σ|billboards(t)|), the sum taken
// over the IDs t of cover(b) whose count crosses k−1 or k: each such ID
// moves in or out of the gain of every billboard covering it. Loss and
// SwapDelta cost O(deg) without mutating the set.
//
// A Counter can also evaluate the impression-count influence measure of
// Zhang et al., KDD 2019 ("Optimizing Impression Counts for Outdoor
// Advertising"), which the paper cites as an orthogonal alternative (§2.2,
// §3.1): with threshold k, a trajectory counts as influenced only after it
// meets at least k billboards of the set. NewCounter uses k = 1 (the
// paper's union coverage); NewCounterWithThreshold selects a larger k.
type Counter struct {
	u       *Universe
	k       int32   // impression threshold; 1 = plain union coverage
	counts  []int32 // counts[id] = #{b ∈ S : b covers id}
	w       []int32 // the universe's corridor weights; nil when unweighted
	covered int     // Σ_{id : counts[id] >= k} weight(id); this is I_k(S)
	member  []bool  // member[b] = b ∈ S
	size    int     // |S|
	gains   []int   // gains[b] = Σ weight(t), t ∈ cover(b), counts[t] == k−1
	// idx is the universe's inverted index, cached off its sync.Once.
	idx *invertedIndex
}

// NewCounter returns an empty Counter over the universe using the paper's
// union-coverage influence (impression threshold 1).
func NewCounter(u *Universe) *Counter {
	return NewCounterWithThreshold(u, 1)
}

// NewCounterWithThreshold returns an empty Counter requiring k impressions
// before a trajectory counts as influenced. It panics if k < 1.
//
// On a corridor-compressed universe the threshold applies per corridor,
// which is exactly the per-trajectory semantics: every trajectory in a
// corridor is covered by the same billboards, so their impression counts
// are equal at all times.
func NewCounterWithThreshold(u *Universe, k int) *Counter {
	if k < 1 {
		panic(fmt.Sprintf("coverage: impression threshold %d < 1", k))
	}
	c := &Counter{
		u:      u,
		k:      int32(k),
		counts: make([]int32, u.numIDs),
		w:      u.weights,
		member: make([]bool, len(u.lists)),
		gains:  make([]int, len(u.lists)),
		idx:    u.inverted(),
	}
	c.Reset() // fills in the empty set's gain table
	return c
}

// Threshold returns the impression threshold k.
func (c *Counter) Threshold() int { return int(c.k) }

// Covered returns I_k(S): with the default threshold 1, the number of
// distinct trajectories covered.
func (c *Counter) Covered() int { return c.covered }

// Size returns |S|, the number of billboards in the set.
func (c *Counter) Size() int { return c.size }

// Has reports whether billboard b is in the set.
func (c *Counter) Has(b int) bool { return c.member[b] }

// Members appends the billboards currently in the set to dst in ascending
// order and returns the extended slice.
func (c *Counter) Members(dst []int) []int {
	for b, in := range c.member {
		if in {
			dst = append(dst, b)
		}
	}
	return dst
}

// Add inserts billboard b into the set. It panics if b is already a member.
func (c *Counter) Add(b int) {
	if c.member[b] {
		panic(fmt.Sprintf("coverage: Add(%d): already a member", b))
	}
	c.member[b] = true
	c.size++
	for _, t := range c.u.lists[b] {
		c.counts[t]++
		switch c.counts[t] {
		case c.k: // left k−1: newly covered, no longer anyone's gain
			w := c.weight(t)
			c.covered += w
			c.shiftGains(t, -w)
		case c.k - 1: // reached k−1: one impression short for everyone
			c.shiftGains(t, c.weight(t))
		}
	}
}

// Remove deletes billboard b from the set. It panics if b is not a member.
func (c *Counter) Remove(b int) {
	if !c.member[b] {
		panic(fmt.Sprintf("coverage: Remove(%d): not a member", b))
	}
	c.member[b] = false
	c.size--
	for _, t := range c.u.lists[b] {
		c.counts[t]--
		switch c.counts[t] {
		case c.k - 1: // fell from k: uncovered, a gain again
			w := c.weight(t)
			c.covered -= w
			c.shiftGains(t, w)
		case c.k - 2: // left k−1
			c.shiftGains(t, -c.weight(t))
		}
	}
}

// shiftGains adds d to the gain of every billboard covering ID t.
func (c *Counter) shiftGains(t int32, d int) {
	for _, o := range c.idx.boards[c.idx.start[t]:c.idx.start[t+1]] {
		c.gains[o] += d
	}
}

// Gain returns I(S ∪ {b}) − I(S): how many new trajectories b would cover.
// It is a table read. b must not be a member (the gain of a member is
// trivially 0, and asking for it almost always indicates an algorithmic
// bug, so it panics).
func (c *Counter) Gain(b int) int {
	if c.member[b] {
		panic(fmt.Sprintf("coverage: Gain(%d): already a member", b))
	}
	return c.gains[b]
}

// Loss returns I(S) − I(S \ {b}): how many trajectories only b covers.
// It panics if b is not a member.
//
// The unweighted loop is kept separate from the weighted one: this is an
// inner local-search loop, and a per-element weight lookup on the
// unit-weight substrate would cost a load and branch per covered ID for
// nothing. Add and Remove look weights up only on a threshold crossing,
// whose inverted-index walk dwarfs the lookup.
func (c *Counter) Loss(b int) int {
	if !c.member[b] {
		panic(fmt.Sprintf("coverage: Loss(%d): not a member", b))
	}
	loss := 0
	if c.w == nil {
		for _, t := range c.u.lists[b] {
			if c.counts[t] == c.k {
				loss++
			}
		}
		return loss
	}
	for _, t := range c.u.lists[b] {
		if c.counts[t] == c.k {
			loss += int(c.w[t])
		}
	}
	return loss
}

// SwapDelta returns I((S \ {out}) ∪ {in}) − I(S) without mutating the set.
// out must be a member and in must not be. The two sorted coverage lists
// are walked in a single linear merge, so the cost is
// O(deg(out) + deg(in)) — IDs covered by both billboards keep their
// impression count and are skipped.
func (c *Counter) SwapDelta(out, in int) int {
	if !c.member[out] {
		panic(fmt.Sprintf("coverage: SwapDelta(out=%d): not a member", out))
	}
	if c.member[in] {
		panic(fmt.Sprintf("coverage: SwapDelta(in=%d): already a member", in))
	}
	outList := c.u.lists[out]
	inList := c.u.lists[in]
	delta := 0
	i, j := 0, 0
	for i < len(outList) || j < len(inList) {
		switch {
		case j == len(inList) || (i < len(outList) && outList[i] < inList[j]):
			// Covered by out only: loses an impression.
			if t := outList[i]; c.counts[t] == c.k {
				delta -= c.weight(t)
			}
			i++
		case i == len(outList) || inList[j] < outList[i]:
			// Covered by in only: gains an impression.
			if t := inList[j]; c.counts[t] == c.k-1 {
				delta += c.weight(t)
			}
			j++
		default:
			// Covered by both: impression count unchanged.
			i++
			j++
		}
	}
	return delta
}

// weight returns the raw trajectories behind coverage ID t.
func (c *Counter) weight(t int32) int {
	if c.w == nil {
		return 1
	}
	return int(c.w[t])
}

// Reset empties the set in one pass over the billboards, clearing the
// counts each member covered and restoring the empty set's gain table, in
// O(Σ deg(member) + #billboards).
func (c *Counter) Reset() {
	for b, in := range c.member {
		if in {
			for _, t := range c.u.lists[b] {
				c.counts[t] = 0
			}
			c.member[b] = false
		}
		if c.k == 1 {
			c.gains[b] = c.u.Degree(b)
		} else {
			c.gains[b] = 0
		}
	}
	c.covered = 0
	c.size = 0
}

// CopyFrom overwrites this counter's state with src's, reusing the existing
// storage. Both counters must share the same universe and threshold; this
// is the allocation-free alternative to Clone for scratch counters reused
// across local-search sweeps.
func (c *Counter) CopyFrom(src *Counter) {
	if c.u != src.u || c.k != src.k {
		panic("coverage: CopyFrom across universes or thresholds")
	}
	if c == src {
		return
	}
	copy(c.counts, src.counts)
	copy(c.member, src.member)
	copy(c.gains, src.gains)
	c.covered = src.covered
	c.size = src.size
}

// Clone returns an independent copy of the counter state.
func (c *Counter) Clone() *Counter {
	return &Counter{
		u:       c.u,
		k:       c.k,
		counts:  slices.Clone(c.counts),
		w:       c.w,
		covered: c.covered,
		member:  slices.Clone(c.member),
		size:    c.size,
		gains:   slices.Clone(c.gains),
		idx:     c.idx,
	}
}

// Universe returns the universe this counter operates over.
func (c *Counter) Universe() *Universe { return c.u }
