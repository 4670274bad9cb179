package dataset

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/billboard"
	"repro/internal/coverage"
	"repro/internal/geo"
	"repro/internal/influence"
	"repro/internal/rng"
	"repro/internal/trajectory"
)

// Streaming paper-scale generation. Generate materializes every trajectory
// before the spatial join, which at the paper's real dataset sizes
// (Table 5: |T| = 1.7M NYC, 2.2M SG) means tens of millions of points —
// gigabytes of transient geometry that the algorithms never look at again —
// and BuildUniverse then holds one raw coverage entry per (billboard,
// trajectory) hit. GenerateUniverse instead runs one fused pipeline per
// fixed-size chunk of trips (5000 by default): draw the chunk's trips, lay
// them out into a grid-indexed chunk, join it against the billboards
// (influence.Joiner), and feed the chunk's coverage to a
// coverage.CorridorAssigner, which folds it straight into corridors.
//
// Trip generation is split in two. The draw makes each trip's random
// choices (tripPlan: an NYC trip's route corners, an SG ride's stops, speed
// and start time) from the one sequential "trips" substream; it is cheap,
// and one goroutine draws chunk after chunk. The layout turns a chunk of
// plans into points, checks each trip, records its length and travel time,
// and scatters the points, each with its trip's chunk-local index, into the
// chunk's cell-ordered grid (geo.Grid), so the join reads points and owners
// sequentially. It draws nothing, so a pool of workers lays out several
// chunks at once while the consumer joins and assigns the chunks in order.
// Parallelism sets the chunks in flight: peak memory is that many chunk
// grids with their plans, one chunk of raw coverage and the corridor
// signatures. No trip's points are kept in trip order: the layout sizes a
// chunk's grid from the plans and derives each trip's points anew for each
// of the grid's two fill passes. The uncompressed universe is never built.
// A 5000-trip NYC chunk is about 175k points, a 4 MB grid that stays near
// the cache; chunks from 2500 to 25000 trips built paper-scale NYC in the
// same time, and peak memory grows with the chunk.
//
// The streamed build is bit-identical to Compress(Generate + BuildUniverse)
// for the same Config and λ: both start from newCity, so the fixed
// infrastructure and every trip's plan are the same; the layout makes each
// trip's points as Generate does; the Table-5 sums are taken in trip order;
// and the assigner numbers corridors by signature alone, so corridors get
// the IDs Compress assigns. Equivalence is enforced by
// TestStreamedBuildMatchesMaterialized.

// PaperNYC returns the NYC configuration at the paper's full scale
// (Table 5: |T| = 1.7M, |U| = 1462). Grid geometry matches DefaultNYC;
// only the trajectory and billboard counts grow.
func PaperNYC(seed uint64) Config {
	c := DefaultNYC(seed)
	c.Trajectories = 1_700_000
	c.Billboards = 1462
	return c
}

// PaperSG returns the SG configuration at the paper's full scale (Table 5:
// |T| = 2.2M, |U| = 4092 = 124 routes × 33 stops).
func PaperSG(seed uint64) Config {
	c := DefaultSG(seed)
	c.Trajectories = 2_200_000
	c.Routes = 124
	c.StopsPerRoute = 33
	return c
}

// StreamOptions configures a streaming universe build.
type StreamOptions struct {
	// Lambda is the influence radius in meters. Must be positive.
	Lambda float64
	// ChunkSize is the number of trajectories generated and joined per
	// chunk; 0 selects 5000.
	ChunkSize int
	// Parallelism bounds the concurrent per-billboard join workers within
	// a chunk, the workers laying chunks out, and the chunks in flight
	// (each with its grid); 0 selects GOMAXPROCS.
	Parallelism int
}

// Streamed is the result of a streaming build: the coverage universe and
// billboard inventory (with costs assigned), plus the Table-5 trajectory
// statistics accumulated on the fly — the trajectories themselves are gone.
type Streamed struct {
	Config     Config
	Universe   *coverage.Universe
	Billboards *billboard.DB
	Stats      trajectory.Stats
}

// Table5 computes the dataset-statistics row without a trajectory DB.
func (s *Streamed) Table5() Table5Row {
	return Table5Row{
		Name:          s.Config.City.String(),
		NumTraj:       s.Stats.Count,
		NumBillboards: s.Billboards.Len(),
		AvgDistanceKM: s.Stats.AvgDistanceM / 1000,
		AvgTravelSec:  s.Stats.AvgTravelTime,
	}
}

// GenerateUniverse builds the corridor-compressed coverage universe for
// the configuration at the given options without ever materializing the
// full trajectory set or its uncompressed coverage.
func GenerateUniverse(c Config, opts StreamOptions) (*Streamed, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if opts.Lambda <= 0 {
		return nil, fmt.Errorf("dataset: lambda %v must be positive", opts.Lambda)
	}

	bills, draw, err := newCity(c)
	if err != nil {
		return nil, err
	}
	bdb := billboard.NewDB(bills)

	u, stats, err := streamUniverse(c.Trajectories, draw, bdb, opts)
	if err != nil {
		return nil, err
	}
	infl := make([]int, u.NumBillboards())
	for b := range infl {
		infl[b] = u.Degree(b)
	}
	if err := bdb.AssignCosts(infl, rng.New(c.Seed).Derive("costs")); err != nil {
		return nil, err
	}
	return &Streamed{Config: c, Universe: u, Billboards: bdb, Stats: stats}, nil
}

// tripChunk is one chunk of trips: their plans, drawn in trip order, and
// once laid out, their points in grid-cell order, each carrying the
// chunk-local index of the trip that owns it, and each trip's length and
// travel time.
type tripChunk struct {
	base   int // ID of the chunk's first trip
	plans  []tripPlan
	grid   geo.Grid
	length []float64 // meters
	travel []float64 // seconds
	err    error     // the chunk's first trip to fail validation
	// laid receives once the chunk is laid out; it holds one signal, so
	// the layout never blocks on it.
	laid chan struct{}
}

// streamUniverse draws total trips from draw and returns their
// corridor-compressed coverage of bdb and their Table-5 statistics. One
// goroutine draws chunks of plans and a pool lays them out, while this one
// joins and assigns them in order; all have exited by the time
// streamUniverse returns.
func streamUniverse(total int, draw func() tripPlan, bdb *billboard.DB, opts StreamOptions) (*coverage.Universe, trajectory.Stats, error) {
	size := opts.ChunkSize
	if size <= 0 {
		size = 5_000
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Mirror influence.BuildCoverage's default cell size so the chunk-local
	// grids probe identical neighborhoods.
	cell := max(opts.Lambda, 10)

	// workers chunks circulate: drawn, laid out, joined and assigned, then
	// back through free. Every channel holds them all, so only taking a
	// chunk from free ever waits.
	free := make(chan *tripChunk, workers)
	for range workers {
		free <- &tripChunk{laid: make(chan struct{}, 1)}
	}
	todo := make(chan *tripChunk, workers)  // drawn chunks, for the layout pool
	drawn := make(chan *tripChunk, workers) // drawn chunks in trip order, for the join
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1 + workers)
	go func() {
		defer wg.Done()
		defer close(todo)
		defer close(drawn)
		drawChunks(total, size, draw, free, todo, drawn, quit)
	}()
	for range workers {
		go func() {
			defer wg.Done()
			var pts []geo.Point
			var offs []float64
			for ch := range todo {
				pts, offs = ch.layout(cell, pts, offs)
				ch.laid <- struct{}{}
			}
		}()
	}
	defer func() {
		close(quit)
		wg.Wait()
	}()

	joiner := influence.NewJoiner(bdb, opts.Lambda, workers)
	corridors := coverage.NewCorridorAssigner(bdb.Len())
	var stats trajectory.Stats
	var sumDist, sumTime float64
	for ch := range drawn {
		<-ch.laid
		if ch.err != nil {
			return nil, trajectory.Stats{}, ch.err
		}
		// Sum in trip order, exactly as trajectory.DB.ComputeStats does.
		for i := range ch.plans {
			sumDist += ch.length[i]
			sumTime += ch.travel[i]
		}
		stats.TotalPoints += ch.grid.Len()
		corridors.AddChunk(joiner.Join(&ch.grid, len(ch.plans), nil), len(ch.plans))
		free <- ch
	}
	u, _, err := corridors.Universe(total)
	if err != nil {
		return nil, trajectory.Stats{}, fmt.Errorf("dataset: %w", err)
	}
	stats.Count = total
	if total > 0 {
		stats.AvgDistanceM = sumDist / float64(total)
		stats.AvgTravelTime = sumTime / float64(total)
	}
	return u, stats, nil
}

// drawChunks takes chunks from free, draws the plans of successive chunks
// of trips into them and sends each to both todo and drawn, until total
// trips are drawn or quit is closed.
func drawChunks(total, size int, draw func() tripPlan, free <-chan *tripChunk,
	todo, drawn chan<- *tripChunk, quit <-chan struct{}) {
	for base := 0; base < total; base += size {
		var ch *tripChunk
		select {
		case ch = <-free:
		case <-quit:
			return
		}
		ch.base = base
		ch.plans = resize(ch.plans, min(size, total-base))
		for i := range ch.plans {
			ch.plans[i] = draw()
		}
		todo <- ch
		drawn <- ch
	}
}

// layout builds the chunk's trips from their plans: it checks each trip
// as trajectory.DB does, records its length and travel time, and fills the
// chunk's grid with its points in cell size cell. It stops at the first
// trip that fails validation. The grid is sized from the plans' extents; a
// point that rounding puts outside them goes to the nearest boundary cell,
// which changes no join result. Each trip's points are made anew into the
// scratch pts for each of the two passes (check and count, place) instead
// of being kept; offs is scratch for its offsets. It returns both scratch
// buffers for reuse.
func (ch *tripChunk) layout(cell float64, pts []geo.Point, offs []float64) ([]geo.Point, []float64) {
	n := len(ch.plans)
	ch.length, ch.travel = resize(ch.length, n), resize(ch.travel, n)
	bounds, points := ch.plans[0].extent()
	for i := 1; i < n; i++ {
		b, k := ch.plans[i].extent()
		bounds, points = bounds.Union(b), points+k
	}
	g := &ch.grid
	g.Reset(bounds, points, cell)
	for i := range ch.plans {
		p := &ch.plans[i]
		pts = p.appendPoints(pts[:0])
		offs = resize(offs, len(pts))
		ch.length[i] = timeOffsets(offs, pts, p.speed)
		t := trajectory.Trajectory{ID: int32(ch.base + i), Points: pts, Offsets: offs}
		if ch.err = t.Validate(); ch.err != nil {
			return pts, offs
		}
		ch.travel[i] = t.TravelTime()
		for _, q := range pts {
			g.Count(q)
		}
	}
	for i := range ch.plans {
		pts = ch.plans[i].appendPoints(pts[:0])
		for _, q := range pts {
			g.Place(q, int32(i))
		}
	}
	return pts, offs
}

// resize returns s with length n, reusing its array when it is big enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
