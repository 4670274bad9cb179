// Package influence implements the paper's influence model (§7.1.2): a
// billboard o influences a trajectory t iff some point of t lies within λ
// meters of o.loc, and the influence of a billboard set is the number of
// distinct trajectories it covers.
//
// BuildCoverage performs the spatial join between a trajectory database and
// a billboard database for a given λ, producing the coverage.Universe that
// every algorithm and experiment consumes. The join uses a uniform grid over
// all trajectory points, so each billboard query touches only nearby cells;
// billboards are processed in parallel.
//
// Digital billboards (time-sliced panels, §3.2 Discussion) are supported:
// when a billboard is a DigitalSlot and Options.SlotsPerDay > 0, it only
// influences a trajectory if the within-λ encounter happens during the
// slot's share of the day.
package influence

import (
	"fmt"
	"runtime"

	"repro/internal/billboard"
	"repro/internal/coverage"
	"repro/internal/geo"
	"repro/internal/trajectory"
)

// IndexKind selects the spatial index used for the radius joins.
type IndexKind uint8

const (
	// GridIndex is the uniform grid (default): fastest when the cell
	// size matches λ.
	GridIndex IndexKind = iota
	// RTreeIndex is the STR-packed R-tree: no tuning parameter, the
	// classical database choice.
	RTreeIndex
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
	// Index selects the spatial index (default GridIndex).
	Index IndexKind
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

	points, owner := tdb.AllPoints()
	var index PointIndex
	switch opts.Index {
	case GridIndex:
		index = geo.NewGrid(points, cell)
	case RTreeIndex:
		index = geo.NewRTree(points)
	default:
		return nil, fmt.Errorf("influence: unknown index kind %d", opts.Index)
	}

	// A digital slot only counts encounters during its share of the day,
	// which needs each point's second-of-day.
	var keep func(b int, point int32) bool
	if opts.SlotsPerDay > 0 {
		pointTime := make([]float64, 0, len(points))
		for id := 0; id < tdb.Len(); id++ {
			t := tdb.At(id)
			base := float64(t.Start.Unix() % secondsPerDay)
			for i := range t.Points {
				off := 0.0
				if t.Offsets != nil {
					off = t.Offsets[i]
				}
				sec := base + off
				sec -= float64(int(sec/secondsPerDay)) * secondsPerDay
				pointTime = append(pointTime, sec)
			}
		}
		keep = func(b int, point int32) bool {
			bb := bdb.At(b)
			return bb.Kind != billboard.DigitalSlot ||
				slotOf(pointTime[point], opts.SlotsPerDay) == int(bb.Slot)%opts.SlotsPerDay
		}
	}

	lists := NewJoiner(bdb, opts.Lambda, workers).Join(index, owner, tdb.Len(), keep)
	return coverage.NewUniverse(tdb.Len(), lists)
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
