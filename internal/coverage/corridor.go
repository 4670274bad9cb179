package coverage

// Corridor pre-aggregation. Two trajectories with the same coverage
// signature — covered by exactly the same billboards — are interchangeable
// to every algorithm in this repository: I(S) only asks how many
// trajectories the union covers, never which. Compress exploits this by
// collapsing each signature class into one weighted "corridor" ID, shrinking
// the coverage ID space from |T| to the number of distinct signatures. In
// gridded synthetic data (and the corridor-following movement of the real
// datasets) that is a 4–50× reduction: every bus rider boarding and
// alighting at the same pair of stops shares one corridor.
//
// Correctness is by construction, not approximation. For any billboard set S
//
//	I(S) = |⋃_{b∈S} cover(b)| = Σ_{corridors c hit by S} weight(c)
//
// because the signature classes partition the covered trajectories and a
// corridor is hit by S iff each of its trajectories is covered by S. Degree,
// MaxDegree, TotalSupply, Counter gains/losses and every CELF bound are
// therefore bit-identical between the substrates, and so are the solver's
// plans: tie-breaks compare billboard IDs and influence values only, never
// raw trajectory IDs.

import (
	"fmt"
	"slices"
)

// CompressionStats reports what corridor compression achieved on one
// universe.
type CompressionStats struct {
	// RawTrajectories is |T| of the source universe, including
	// trajectories covered by no billboard.
	RawTrajectories int `json:"raw_trajectories"`
	// Covered is the number of raw trajectories with non-empty coverage —
	// the only ones that need a corridor.
	Covered int `json:"covered_trajectories"`
	// Corridors is the number of distinct coverage signatures: the size of
	// the compressed ID space.
	Corridors int `json:"corridors"`
	// Ratio is RawTrajectories / Corridors — how much smaller every
	// per-ID array and bitset becomes (1 when nothing compressed).
	Ratio float64 `json:"compression_ratio"`
}

// statsFor fills the derived Ratio field.
func statsFor(raw, covered, corridors int) CompressionStats {
	s := CompressionStats{RawTrajectories: raw, Covered: covered, Corridors: corridors}
	if corridors > 0 {
		s.Ratio = float64(raw) / float64(corridors)
	} else {
		s.Ratio = 1
	}
	return s
}

// Compress returns a corridor-compressed universe equivalent to u: same
// billboards, same influence for every billboard set, but with trajectories
// of identical coverage signature collapsed into single weighted corridor
// IDs. A universe that is already compressed is returned unchanged.
//
// Corridor IDs are assigned in ascending order of each class's smallest raw
// trajectory ID (see CorridorAssigner), so the result is deterministic.
func Compress(u *Universe) (*Universe, CompressionStats) {
	if u.weights != nil {
		var covered int64
		for _, w := range u.weights {
			covered += int64(w)
		}
		return u, statsFor(u.numTrajectories, int(covered), u.numIDs)
	}
	a := NewCorridorAssigner(len(u.lists))
	a.AddChunk(u.lists, u.numIDs)
	cu, stats, err := a.Universe(u.numTrajectories)
	if err != nil {
		panic(fmt.Sprintf("coverage: Compress: %v", err))
	}
	return cu, stats
}

// A CorridorAssigner builds a corridor-compressed universe from coverage fed
// in ascending trajectory order, one chunk at a time, so the uncompressed
// lists of more than one chunk never exist at once. Each covered
// trajectory's signature — its ascending billboard IDs — is hashed and
// matched exactly against the signatures already seen, so a hash collision
// costs a comparison and can never merge two classes. A new signature gets
// the next corridor ID, which is appended to each of its billboards' lists;
// a known one adds one to its corridor's weight. Corridor IDs therefore
// ascend with each class's smallest trajectory, and every list is born
// sorted.
type CorridorAssigner struct {
	lists   []List  // per-billboard corridor IDs
	weights []int32 // raw trajectories per corridor; never nil
	rawHits []int   // per-billboard trajectories fed: the uncompressed Degree

	// Known signatures back to back: corridor c's is
	// arena[start[c]:start[c+1]]. heads maps a signature hash to the newest
	// corridor with that hash, and next[c] to the previous one (-1 ends a
	// chain).
	arena []int32
	start []int
	heads map[uint64]int32
	next  []int32

	// Per-chunk inversion scratch, reused across chunks.
	ends []int
	sigs []int32
}

// NewCorridorAssigner returns an assigner for a universe of numBillboards
// billboards.
func NewCorridorAssigner(numBillboards int) *CorridorAssigner {
	return &CorridorAssigner{
		lists:   make([]List, numBillboards),
		weights: []int32{},
		rawHits: make([]int, numBillboards),
		start:   []int{0},
		heads:   make(map[uint64]int32),
	}
}

// AddChunk feeds the next n trajectories. lists[b] holds the chunk-local IDs
// in [0, n) of the trajectories billboard b covers, without duplicates;
// there must be one list per billboard. Chunks must arrive in ascending
// trajectory order. The lists are only read during the call.
func (a *CorridorAssigner) AddChunk(lists []List, n int) {
	if len(lists) != len(a.lists) {
		panic(fmt.Sprintf("coverage: AddChunk with %d lists, assigner has %d billboards", len(lists), len(a.lists)))
	}
	// Invert the lists into one CSR signature table. Counting sort: ends[t]
	// first counts t's hits, becomes the start of t's row after the prefix
	// sum, and is advanced to the end of the row by the fill. Walking
	// billboards in ascending order builds each row already sorted.
	ends := slices.Grow(a.ends[:0], n)[:n]
	clear(ends)
	total := 0
	for b, l := range lists {
		a.rawHits[b] += len(l)
		total += len(l)
		for _, t := range l {
			ends[t]++
		}
	}
	pos := 0
	for t, d := range ends {
		ends[t] = pos
		pos += d
	}
	sigs := slices.Grow(a.sigs[:0], total)[:total]
	for b, l := range lists {
		for _, t := range l {
			sigs[ends[t]] = int32(b)
			ends[t]++
		}
	}
	lo := 0
	for _, hi := range ends {
		if hi > lo { // an uncovered trajectory needs no corridor
			sig := sigs[lo:hi]
			a.add(sig, hashSignature(sig))
		}
		lo = hi
	}
	a.ends, a.sigs = ends, sigs
}

// add assigns one covered trajectory with signature sig and its hash h.
func (a *CorridorAssigner) add(sig []int32, h uint64) {
	head, ok := a.heads[h]
	if !ok {
		head = -1
	}
	for c := head; c >= 0; c = a.next[c] {
		if slices.Equal(a.arena[a.start[c]:a.start[c+1]], sig) {
			a.weights[c]++
			return
		}
	}
	c := int32(len(a.weights))
	a.weights = append(a.weights, 1)
	a.next = append(a.next, head)
	a.heads[h] = c
	a.arena = append(a.arena, sig...)
	a.start = append(a.start, len(a.arena))
	for _, b := range sig {
		a.lists[b] = append(a.lists[b], c)
	}
}

// Universe returns the compressed universe over numTrajectories raw
// trajectories, and its compression statistics. It fails if the corridors
// do not reproduce the raw hit count of every billboard: the compressed
// substrate must preserve every per-billboard influence exactly, and a
// mismatch means the assignment is wrong — returning it would corrupt every
// downstream solve.
func (a *CorridorAssigner) Universe(numTrajectories int) (*Universe, CompressionStats, error) {
	// The lists grew by appends interleaved across billboards; pack them
	// back to back in billboard order, without the growth slack.
	total := 0
	for _, l := range a.lists {
		total += len(l)
	}
	packed := make([]int32, 0, total)
	lists := make([]List, len(a.lists))
	for b, l := range a.lists {
		start := len(packed)
		packed = append(packed, l...)
		lists[b] = packed[start:len(packed):len(packed)]
	}
	u, err := NewWeightedUniverse(numTrajectories, lists, a.weights)
	if err != nil {
		return nil, CompressionStats{}, fmt.Errorf("corridor assignment produced an invalid universe: %w", err)
	}
	for b, hits := range a.rawHits {
		if u.Degree(b) != hits {
			return nil, CompressionStats{}, fmt.Errorf("corridor assignment changed Degree(%d): %d != %d raw hits", b, u.Degree(b), hits)
		}
	}
	covered := 0
	for _, w := range a.weights {
		covered += int(w)
	}
	return u, statsFor(numTrajectories, covered, len(a.weights)), nil
}

// hashSignature is FNV-1a over the signature, one billboard ID per step.
func hashSignature(s []int32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range s {
		h ^= uint64(uint32(b))
		h *= prime64
	}
	return h
}
