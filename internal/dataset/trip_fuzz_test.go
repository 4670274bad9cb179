package dataset

import (
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/trajectory"
)

// The reference trip generators below are the one-step generators that
// predate the split into a sequential draw (tripPlan) and its layout. They
// are kept, test-only, as the specification the split must reproduce bit
// for bit: the same points, offsets and start time from the same RNG
// calls, in the same order.

// refNYCTrip samples one L-shaped grid trip in one step.
func refNYCTrip(g *nycGrid, r *rng.RNG) trajectory.Trajectory {
	c := g.cfg
	a0, s0 := g.sampleNode(r)
	ds := 4 + r.Intn(11)
	if r.Float64() < 0.5 {
		ds = -ds
	}
	s1 := clampInt(s0+ds, 0, c.Streets-1)
	da := r.Intn(4)
	if r.Float64() < 0.5 {
		da = -da
	}
	a1 := clampInt(a0+da, 0, c.Avenues-1)
	via := g.sampleAvenueNear(r, a0, a1)
	waypoints := []geo.Point{
		{X: g.avenueX[a0], Y: g.streetY[s0]},
		{X: g.avenueX[via], Y: g.streetY[s0]},
		{X: g.avenueX[via], Y: g.streetY[s1]},
		{X: g.avenueX[a1], Y: g.streetY[s1]},
	}
	return refFinishTrip(refDensify(waypoints, nycTripPointSpacing), c.TripSpeedMPS, r)
}

// refSGTrip samples one ride on the route in one step.
func refSGTrip(c Config, route *sgRoute, r *rng.RNG) trajectory.Trajectory {
	n := len(route.stops)
	ride := 4 + r.Intn(12)
	if ride > n-1 {
		ride = n - 1
	}
	board := r.Intn(n - ride)
	alight := board + ride
	points := make([]geo.Point, 0, alight-board+1)
	for k := board; k <= alight; k++ {
		points = append(points, route.stops[k])
	}
	return refFinishTrip(points, c.BusSpeedMPS, r)
}

// refDensify resamples a waypoint polyline at roughly the given spacing,
// keeping the waypoints.
func refDensify(waypoints []geo.Point, spacing float64) []geo.Point {
	out := []geo.Point{waypoints[0]}
	for i := 1; i < len(waypoints); i++ {
		from, to := waypoints[i-1], waypoints[i]
		d := from.Dist(to)
		steps := int(d / spacing)
		for k := 1; k <= steps; k++ {
			out = append(out, from.Lerp(to, float64(k)/float64(steps+1)))
		}
		if d > 0 {
			out = append(out, to)
		}
	}
	return out
}

// refFinishTrip attaches travel-time offsets over a noisy speed and a random
// start time within one day.
func refFinishTrip(points []geo.Point, speedMPS float64, r *rng.RNG) trajectory.Trajectory {
	speed := speedMPS * r.Range(0.85, 1.15)
	offsets := make([]float64, len(points))
	cum := 0.0
	for i := 1; i < len(points); i++ {
		cum += points[i-1].Dist(points[i])
		offsets[i] = cum / speed
	}
	start := time.Unix(int64(r.Intn(86400)), 0).UTC()
	return trajectory.Trajectory{Points: points, Start: start, Offsets: offsets}
}

// FuzzTripDraw is a differential check of trip generation: for fuzzed
// seeds and small configurations of both cities, with spacings that put
// points off whole meters, drawing a plan and building its trip must give
// the reference generator's points, offsets and start time, and leave the
// trips substream where the reference leaves it, so the draw makes the
// same RNG calls in the same order. Each plan's extent must also count its
// points exactly, since the streamed layout sizes its grid from it.
func FuzzTripDraw(f *testing.F) {
	f.Add(uint64(42), false, uint8(12), uint8(110), uint16(3500), uint8(40))
	f.Add(uint64(7), false, uint8(2), uint8(2), uint16(1), uint8(9))
	f.Add(uint64(3), false, uint8(5), uint8(17), uint16(6999), uint8(60))
	f.Add(uint64(42), true, uint8(48), uint8(24), uint16(3150), uint8(40))
	f.Add(uint64(9), true, uint8(1), uint8(2), uint16(1), uint8(12))
	f.Add(uint64(11), true, uint8(3), uint8(7), uint16(4321), uint8(50))
	f.Fuzz(func(t *testing.T, seed uint64, sg bool, a, b uint8, spacing uint16, trips uint8) {
		// Spacings are sevenths of a meter, from 1/7 m up.
		space := float64(spacing%20000+1) / 7
		c := DefaultNYC(seed)
		if sg {
			c = DefaultSG(seed)
			c.Routes = 1 + int(a)%8
			c.StopsPerRoute = 2 + int(b)%40
			c.StopSpacing = space
		} else {
			c.Avenues = 2 + int(a)%20
			c.Streets = 2 + int(b)%150
			c.AvenueSpacing, c.StreetSpacing = space, space*0.44
			c.Billboards = 1
		}
		c.Trajectories = 1 + int(trips)%64
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		r := rng.New(c.Seed).Derive(c.City.String())
		refRNG, drawRNG := r.Derive("trips"), r.Derive("trips")
		var ref func() trajectory.Trajectory
		var draw func() tripPlan
		if sg {
			routes, _, cdf := genSGNetwork(c, r)
			ref = func() trajectory.Trajectory { return refSGTrip(c, &routes[sampleCDF(cdf, refRNG)], refRNG) }
			draw = func() tripPlan { return drawSGTrip(c, routes, cdf, drawRNG) }
		} else {
			grid := newNYCGrid(c, r.Derive("grid"))
			ref = func() trajectory.Trajectory { return refNYCTrip(grid, refRNG) }
			draw = func() tripPlan { return grid.drawTrip(drawRNG) }
		}
		for i := 0; i < c.Trajectories; i++ {
			want, p := ref(), draw()
			got := p.trip()
			if !slices.Equal(got.Points, want.Points) {
				t.Fatalf("trip %d: points %v, want %v", i, got.Points, want.Points)
			}
			if !slices.Equal(got.Offsets, want.Offsets) {
				t.Fatalf("trip %d: offsets %v, want %v", i, got.Offsets, want.Offsets)
			}
			if !got.Start.Equal(want.Start) {
				t.Fatalf("trip %d: start %v, want %v", i, got.Start, want.Start)
			}
			if _, n := p.extent(); n != len(got.Points) {
				t.Fatalf("trip %d: extent counts %d points, trip has %d", i, n, len(got.Points))
			}
		}
		if got, want := drawRNG.Uint64(), refRNG.Uint64(); got != want {
			t.Fatalf("next draw %#x after %d trips, reference %#x", got, c.Trajectories, want)
		}
	})
}
