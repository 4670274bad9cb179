// Package trajectory models audience movements: time-stamped point sequences
// in the city-local planar frame, together with the summary statistics the
// paper reports (Table 5) and a CSV codec for persistence.
//
// A trajectory is the unit of influence in the paper: a billboard influences
// a trajectory iff one of its points passes within λ meters of the billboard
// (§7.1.2). The algorithms never look inside a trajectory — they only see
// coverage lists — so this package exists for dataset generation, statistics
// and the spatial join in package influence.
package trajectory

import (
	"fmt"
	"time"

	"repro/internal/geo"
)

// Trajectory is one audience movement: an ordered point sequence with the
// start time and per-point offsets in seconds. Offsets must be
// non-decreasing and Offsets, when non-nil, must have the same length as
// Points.
type Trajectory struct {
	ID      int32
	Points  []geo.Point
	Start   time.Time
	Offsets []float64 // seconds since Start, one per point; may be nil
}

// Validate returns an error if the trajectory is structurally inconsistent.
func (t *Trajectory) Validate() error {
	if len(t.Points) == 0 {
		return fmt.Errorf("trajectory %d: no points", t.ID)
	}
	if t.Offsets != nil {
		if len(t.Offsets) != len(t.Points) {
			return fmt.Errorf("trajectory %d: %d offsets for %d points", t.ID, len(t.Offsets), len(t.Points))
		}
		for i := 1; i < len(t.Offsets); i++ {
			if t.Offsets[i] < t.Offsets[i-1] {
				return fmt.Errorf("trajectory %d: offsets decrease at index %d", t.ID, i)
			}
		}
	}
	return nil
}

// Distance returns the total path length in meters.
func (t *Trajectory) Distance() float64 { return geo.PathLength(t.Points) }

// TravelTime returns the elapsed time from first to last point in seconds,
// or 0 if offsets are absent or the trajectory has fewer than two points.
func (t *Trajectory) TravelTime() float64 {
	if t.Offsets == nil || len(t.Offsets) < 2 {
		return 0
	}
	return t.Offsets[len(t.Offsets)-1] - t.Offsets[0]
}

// DB is an immutable collection of trajectories addressed by dense IDs
// 0..Len()-1.
type DB struct {
	trajectories []Trajectory
}

// NewDB validates the trajectories, assigns dense IDs in slice order, and
// returns the database.
func NewDB(ts []Trajectory) (*DB, error) {
	for i := range ts {
		ts[i].ID = int32(i)
		if err := ts[i].Validate(); err != nil {
			return nil, err
		}
	}
	return &DB{trajectories: ts}, nil
}

// Len returns the number of trajectories.
func (db *DB) Len() int { return len(db.trajectories) }

// At returns the trajectory with the given ID.
func (db *DB) At(id int) *Trajectory { return &db.trajectories[id] }

// Stats summarizes a trajectory database as reported in Table 5.
type Stats struct {
	Count         int
	AvgDistanceM  float64 // mean path length in meters
	AvgTravelTime float64 // mean travel time in seconds
	TotalPoints   int
}

// ComputeStats computes summary statistics over the whole database.
func (db *DB) ComputeStats() Stats {
	s := Stats{Count: db.Len()}
	if s.Count == 0 {
		return s
	}
	var sumDist, sumTime float64
	for i := range db.trajectories {
		t := &db.trajectories[i]
		sumDist += t.Distance()
		sumTime += t.TravelTime()
		s.TotalPoints += len(t.Points)
	}
	s.AvgDistanceM = sumDist / float64(s.Count)
	s.AvgTravelTime = sumTime / float64(s.Count)
	return s
}
