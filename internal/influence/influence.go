// Package influence implements the paper's influence model (§7.1.2): a
// billboard o influences a trajectory t iff some point of t lies within λ
// meters of o.loc, and the influence of a billboard set is the number of
// distinct trajectories it covers.
//
// BuildCoverage performs the spatial join between a trajectory database and
// a billboard database for a given λ, producing the coverage.Universe that
// every algorithm and experiment consumes. The join cuts the trajectories
// into chunks and puts each chunk's points in a uniform grid, so each
// billboard query touches only nearby cells; chunks are joined in
// parallel.
//
// Digital billboards (time-sliced panels, §3.2 Discussion) are supported:
// when a billboard is a DigitalSlot and Options.SlotsPerDay > 0, it only
// influences a trajectory if the within-λ encounter happens during the
// slot's share of the day.
package influence

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/billboard"
	"repro/internal/coverage"
	"repro/internal/geo"
	"repro/internal/trajectory"
)

// Options configures the coverage build.
type Options struct {
	// Lambda is the influence radius in meters (λ in the paper). Must be
	// positive. The paper evaluates λ ∈ {50, 100, 150, 200} with a
	// default of 100 (Table 6).
	Lambda float64
	// CellSize is the grid cell size in meters; 0 selects Lambda
	// (clamped to at least 10 m), which keeps radius queries within a
	// 3×3 cell neighborhood.
	CellSize float64
	// SlotsPerDay enables time filtering for DigitalSlot billboards:
	// slot k of a panel covers only encounters whose time-of-day falls
	// in [k, k+1)·(86400/SlotsPerDay) seconds. 0 disables time
	// filtering and slots behave like static billboards.
	SlotsPerDay int
	// Parallelism bounds the number of concurrent workers; 0 selects
	// GOMAXPROCS.
	Parallelism int
}

// DefaultLambda is the paper's default influence radius in meters.
const DefaultLambda = 100

const secondsPerDay = 86400

// BuildCoverage computes, for every billboard, the set of trajectories it
// influences, and returns them as a coverage.Universe.
func BuildCoverage(tdb *trajectory.DB, bdb *billboard.DB, opts Options) (*coverage.Universe, error) {
	if opts.Lambda <= 0 {
		return nil, fmt.Errorf("influence: lambda %v must be positive", opts.Lambda)
	}
	cell := opts.CellSize
	if cell == 0 {
		cell = opts.Lambda
		if cell < 10 {
			cell = 10
		}
	}
	if cell <= 0 {
		return nil, fmt.Errorf("influence: cell size %v must be positive", cell)
	}
	if opts.SlotsPerDay < 0 {
		return nil, fmt.Errorf("influence: slots per day %d must be non-negative", opts.SlotsPerDay)
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// The join runs a chunk of trajectories at a time, each chunk on one
	// worker with a grid of its own: a chunk's grid fits in cache, so
	// filling it costs a fraction of filling one grid over every point, and
	// the fills run in parallel. Chunk k spans trajectories
	// [starts[k], starts[k+1]) and ends with the one that brings it to
	// chunkPoints points.
	starts := []int{0}
	for id, n := 0, 0; id < tdb.Len(); id++ {
		n += len(tdb.At(id).Points)
		if n >= chunkPoints || id == tdb.Len()-1 {
			starts, n = append(starts, id+1), 0
		}
	}
	chunks := make([]chunkLists, len(starts)-1)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(chunks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var grid geo.Grid
			var pointTime []float64 // each grid position's second-of-day
			var keep func(b int, pos int32) bool
			if opts.SlotsPerDay > 0 {
				// A digital slot only counts encounters during its share
				// of the day.
				keep = func(b int, pos int32) bool {
					bb := bdb.At(b)
					return bb.Kind != billboard.DigitalSlot ||
						slotOf(pointTime[pos], opts.SlotsPerDay) == int(bb.Slot)%opts.SlotsPerDay
				}
			}
			joiner := NewJoiner(bdb, opts.Lambda, 1)
			for k := int(next.Add(1) - 1); k < len(chunks); k = int(next.Add(1) - 1) {
				pointTime = fillChunk(&grid, tdb, starts[k], starts[k+1], cell, pointTime, keep != nil)
				chunks[k].pack(joiner.Join(&grid, starts[k+1]-starts[k], keep))
			}
		}()
	}
	wg.Wait()

	// Concatenate each billboard's chunk lists in chunk order, shifting
	// chunk-local owners to trajectory IDs; every list comes out sorted.
	total := 0
	for k := range chunks {
		total += len(chunks[k].ids)
	}
	flat := make([]int32, 0, total)
	lists := make([]coverage.List, bdb.Len())
	for b := range lists {
		from := len(flat)
		for k := range chunks {
			c := &chunks[k]
			for _, o := range c.ids[c.ends[b]:c.ends[b+1]] {
				flat = append(flat, int32(starts[k])+o)
			}
		}
		lists[b] = flat[from:len(flat):len(flat)]
	}
	return coverage.NewUniverse(tdb.Len(), lists)
}

// chunkPoints is the number of points BuildCoverage joins at a time, about
// 1.3 MB of grid.
const chunkPoints = 1 << 16

// chunkLists holds one chunk's coverage lists back to back: billboard b's
// list is ids[ends[b]:ends[b+1]].
type chunkLists struct {
	ids  []int32
	ends []int32
}

// pack copies lists, which the joiner will reuse, into c.
func (c *chunkLists) pack(lists []coverage.List) {
	c.ends = make([]int32, 1, len(lists)+1)
	for _, l := range lists {
		c.ids = append(c.ids, l...)
		c.ends = append(c.ends, int32(len(c.ids)))
	}
}

// fillChunk fills grid with the points of trajectories [lo, hi) of tdb,
// each owned by its trajectory's index within the chunk. With timed set it
// also records each grid position's second-of-day, in pointTime's array
// when it is big enough, and returns the times.
func fillChunk(grid *geo.Grid, tdb *trajectory.DB, lo, hi int, cell float64, pointTime []float64, timed bool) []float64 {
	bounds, n := geo.BoundingRect(tdb.At(lo).Points), 0
	for id := lo; id < hi; id++ {
		bounds = bounds.Union(geo.BoundingRect(tdb.At(id).Points))
		n += len(tdb.At(id).Points)
	}
	grid.Reset(bounds, n, cell)
	for id := lo; id < hi; id++ {
		for _, p := range tdb.At(id).Points {
			grid.Count(p)
		}
	}
	if timed {
		pointTime = slices.Grow(pointTime[:0], n)[:n]
	}
	for id := lo; id < hi; id++ {
		t := tdb.At(id)
		base := float64(t.Start.Unix() % secondsPerDay)
		for i, p := range t.Points {
			pos := grid.Place(p, int32(id-lo))
			if timed {
				sec := base
				if t.Offsets != nil {
					sec += t.Offsets[i]
				}
				pointTime[pos] = sec - float64(int(sec/secondsPerDay))*secondsPerDay
			}
		}
	}
	return pointTime
}

// slotOf returns the slot index of a second-of-day under the given division
// of the day.
func slotOf(secOfDay float64, slotsPerDay int) int {
	s := int(secOfDay / (secondsPerDay / float64(slotsPerDay)))
	if s >= slotsPerDay {
		s = slotsPerDay - 1
	}
	if s < 0 {
		s = 0
	}
	return s
}
