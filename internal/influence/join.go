package influence

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/billboard"
	"repro/internal/coverage"
	"repro/internal/geo"
)

// A Joiner runs the coverage join: for every billboard, the distinct owners
// of the grid's points within λ of it, in ascending order. Billboards are
// spread over a fixed set of workers. Each worker marks the owners behind
// its hits in a bitmap over the owner space and reads the marked bits back
// out in order, so the lists come out sorted and duplicate-free without a
// sort. The grid keeps owners beside their points in cell order, so the
// owner reads follow the hits through memory. A Joiner reuses its buffers
// from one Join to the next.
type Joiner struct {
	bills   *billboard.DB
	lambda  float64
	workers []joinWorker
	lists   []coverage.List
}

// joinWorker is one worker's scratch, kept between joins.
type joinWorker struct {
	hits []int32  // grid positions within λ of the current billboard
	seen []uint64 // owner bitmap; all zero between billboards
	out  []int32  // this worker's lists back to back
	done []span   // where each billboard this worker joined sits in out
}

// span locates billboard b's list at out[start:end].
type span struct{ b, start, end int }

// NewJoiner returns a joiner of the billboards in bdb at radius lambda over
// the given number of workers (at least one).
func NewJoiner(bdb *billboard.DB, lambda float64, workers int) *Joiner {
	return &Joiner{
		bills:   bdb,
		lambda:  lambda,
		workers: make([]joinWorker, max(workers, 1)),
		lists:   make([]coverage.List, bdb.Len()),
	}
}

// Join returns each billboard's coverage list over grid, whose owners lie
// in [0, numOwners). keep, when non-nil, filters hits: the point at grid
// position pos counts toward billboard b only if keep(b, pos). The lists
// share the joiner's buffers and stay valid until the next Join.
func (j *Joiner) Join(grid *geo.Grid, numOwners int, keep func(b int, pos int32) bool) []coverage.List {
	words := (numOwners + 63) / 64
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := range j.workers {
		w := &j.workers[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.join(j, grid, words, keep, &next)
		}()
	}
	wg.Wait()
	for i := range j.workers {
		w := &j.workers[i]
		for _, s := range w.done {
			j.lists[s.b] = w.out[s.start:s.end:s.end]
		}
	}
	return j.lists
}

// join takes billboards from next until none are left.
func (w *joinWorker) join(j *Joiner, grid *geo.Grid, words int, keep func(int, int32) bool, next *atomic.Int64) {
	if cap(w.seen) < words {
		w.seen = make([]uint64, words)
	}
	seen := w.seen[:words]
	w.out, w.done = w.out[:0], w.done[:0]
	for {
		b := int(next.Add(1) - 1)
		if b >= j.bills.Len() {
			return
		}
		w.hits = grid.Within(j.bills.At(b).Loc, j.lambda, w.hits[:0])
		lo, hi := words, -1
		for _, p := range w.hits {
			if keep != nil && !keep(b, p) {
				continue
			}
			o := grid.Owner(p)
			k := int(o >> 6)
			seen[k] |= 1 << (o & 63)
			lo, hi = min(lo, k), max(hi, k)
		}
		start := len(w.out)
		for k := lo; k <= hi; k++ {
			for x := seen[k]; x != 0; x &= x - 1 {
				w.out = append(w.out, int32(k<<6|bits.TrailingZeros64(x)))
			}
			seen[k] = 0
		}
		w.done = append(w.done, span{b, start, len(w.out)})
	}
}
