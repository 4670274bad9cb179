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
// fixed-size chunk of trips: generate the chunk and grid-index its points,
// join it against the billboards (influence.Joiner), and feed the chunk's
// coverage to a coverage.CorridorAssigner, which folds it straight into
// corridors. A generator goroutine builds chunk k+1 while chunk k is joined
// and assigned, reusing two chunk buffers. Peak memory is two chunks of
// trips, one chunk of raw coverage and the corridor lists; the uncompressed
// universe is never built.
//
// The streamed build is bit-identical to Compress(Generate + BuildUniverse)
// for the same Config and λ: the fixed infrastructure (grid/billboards,
// routes/ridership) comes from the same named RNG substreams, trips are
// drawn from one sequential "trips" substream exactly as Generate draws
// them, and chunks reach the assigner in ascending trajectory order, so
// corridors get the IDs Compress assigns. Equivalence is enforced by
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
	// chunk; 0 selects 100000.
	ChunkSize int
	// Parallelism bounds concurrent per-billboard join workers within a
	// chunk; 0 selects GOMAXPROCS.
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

	r := rng.New(c.Seed).Derive(c.City.String())
	var nextTrip func() trajectory.Trajectory
	var bills []billboard.Billboard
	switch c.City {
	case NYC:
		grid := newNYCGrid(c, r.Derive("grid"))
		bills = genNYCBillboards(c, grid, r.Derive("billboards"))
		tripRNG := r.Derive("trips")
		nextTrip = func() trajectory.Trajectory { return genNYCTrip(grid, tripRNG) }
	case SG:
		routes, sgBills, cdf := genSGNetwork(c, r)
		bills = sgBills
		tripRNG := r.Derive("trips")
		nextTrip = func() trajectory.Trajectory {
			route := &routes[sampleCDF(cdf, tripRNG)]
			return genSGTrip(c, route, tripRNG)
		}
	default:
		return nil, fmt.Errorf("dataset: unknown city %d", c.City)
	}
	bdb := billboard.NewDB(bills)

	u, stats, err := streamUniverse(c.Trajectories, nextTrip, bdb, opts)
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

// tripChunk is one chunk of generated trips: every point, the chunk-local
// index of the trip owning each point, and a grid over the points.
type tripChunk struct {
	n      int
	points []geo.Point
	owner  []int32
	index  *geo.Grid
	err    error // a generated trip failed validation
}

// streamUniverse draws total trips from nextTrip and returns their
// corridor-compressed coverage of bdb and their Table-5 statistics. One
// goroutine generates chunks while this one joins and assigns them; it
// has exited by the time streamUniverse returns.
func streamUniverse(total int, nextTrip func() trajectory.Trajectory, bdb *billboard.DB, opts StreamOptions) (*coverage.Universe, trajectory.Stats, error) {
	size := opts.ChunkSize
	if size <= 0 {
		size = 100_000
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Mirror influence.BuildCoverage's default cell size so the chunk-local
	// grids probe identical neighborhoods.
	cell := max(opts.Lambda, 10)

	// Two buffers circulate: the generator fills one while the other is
	// joined, and gets it back through free once its coverage is assigned.
	free := make(chan *tripChunk, 2)
	free <- new(tripChunk)
	free <- new(tripChunk)
	chunks := make(chan *tripChunk)
	quit := make(chan struct{})
	var stats trajectory.Stats // written by the generator before it closes chunks
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(chunks)
		stats = generateChunks(total, size, cell, nextTrip, free, chunks, quit)
	}()
	defer func() {
		close(quit)
		wg.Wait()
	}()

	joiner := influence.NewJoiner(bdb, opts.Lambda, workers)
	corridors := coverage.NewCorridorAssigner(bdb.Len())
	for ch := range chunks {
		if ch.err != nil {
			return nil, trajectory.Stats{}, ch.err
		}
		corridors.AddChunk(joiner.Join(ch.index, ch.owner, ch.n, nil), ch.n)
		free <- ch
	}
	u, _, err := corridors.Universe(total)
	if err != nil {
		return nil, trajectory.Stats{}, fmt.Errorf("dataset: %w", err)
	}
	return u, stats, nil
}

// generateChunks fills buffers from free with successive chunks of trips
// and sends them on out, until total trips are sent, a trip fails
// validation (the chunk carrying the error is the last sent), or quit is
// closed. It returns the statistics of all trips, accumulated in trip order
// exactly as trajectory.DB.ComputeStats does.
func generateChunks(total, size int, cell float64, nextTrip func() trajectory.Trajectory,
	free <-chan *tripChunk, out chan<- *tripChunk, quit <-chan struct{}) trajectory.Stats {
	var stats trajectory.Stats
	var sumDist, sumTime float64
	for base := 0; base < total; base += size {
		var ch *tripChunk
		select {
		case ch = <-free:
		case <-quit:
			return stats
		}
		ch.n = min(size, total-base)
		ch.points, ch.owner = ch.points[:0], ch.owner[:0]
		for i := 0; i < ch.n; i++ {
			t := nextTrip()
			t.ID = int32(base + i)
			if ch.err = t.Validate(); ch.err != nil {
				break
			}
			sumDist += t.Distance()
			sumTime += t.TravelTime()
			stats.TotalPoints += len(t.Points)
			ch.points = append(ch.points, t.Points...)
			for range t.Points {
				ch.owner = append(ch.owner, int32(i))
			}
		}
		if ch.err == nil {
			ch.index = geo.NewGrid(ch.points, cell)
		}
		select {
		case out <- ch:
		case <-quit:
			return stats
		}
		if ch.err != nil {
			return stats
		}
	}
	stats.Count = total
	if total > 0 {
		stats.AvgDistanceM = sumDist / float64(total)
		stats.AvgTravelTime = sumTime / float64(total)
	}
	return stats
}
