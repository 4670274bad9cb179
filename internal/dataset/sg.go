package dataset

import (
	"math"

	"repro/internal/billboard"
	"repro/internal/geo"
	"repro/internal/rng"
)

// The SG generator models bus-based movement: a set of bus routes, each a
// smooth random walk of stops, with one billboard at every stop (JCDecaux
// operates the bus-stop panels in the paper's dataset). A trajectory is one
// bus ride: its points are exactly the stop locations between boarding and
// alighting. This yields the paper's SG signature: near-uniform billboard
// influence, low coverage overlap across routes, and λ-insensitivity below
// the stop spacing (the audience is at distance 0 from the billboard or a
// whole stop away — Figure 12b).

const sgAreaSide = 18000 // meters; square city

// sgRoute is one generated bus route.
type sgRoute struct {
	stops []geo.Point
	// firstBB is the billboard ID of stops[0]; stop k's billboard is
	// firstBB + k (billboards are laid out route-major).
	firstBB int
}

// genSGNetwork generates the fixed infrastructure of the bus city: the
// routes, the billboard inventory (one per stop, laid out route-major), and
// the ridership CDF trips are drawn from.
func genSGNetwork(c Config, r *rng.RNG) (routes []sgRoute, bills []billboard.Billboard, cdf []float64) {
	routeRNG := r.Derive("routes")
	routes = make([]sgRoute, c.Routes)
	for i := range routes {
		routes[i] = genSGRoute(c, routeRNG)
		routes[i].firstBB = len(bills)
		for _, stop := range routes[i].stops {
			bills = append(bills, billboard.Billboard{Loc: stop})
		}
	}

	weights := zipfWeights(r.Derive("ridership"), c.Routes, c.RouteSkew)
	cdf = make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		sum += w
		cdf[i] = sum
	}
	return routes, bills, cdf
}

// genSGRoute walks StopsPerRoute stops with direction persistence, staying
// inside the city square by turning away from the boundary.
func genSGRoute(c Config, r *rng.RNG) sgRoute {
	margin := c.StopSpacing
	cur := geo.Point{
		X: r.Range(margin, sgAreaSide-margin),
		Y: r.Range(margin, sgAreaSide-margin),
	}
	heading := r.Range(0, 2*math.Pi)
	stops := make([]geo.Point, 0, c.StopsPerRoute)
	stops = append(stops, cur)
	for len(stops) < c.StopsPerRoute {
		heading += r.Range(-0.45, 0.45) // mild curvature
		next := cur.Add(c.StopSpacing*math.Cos(heading), c.StopSpacing*math.Sin(heading))
		// Bounce off the city boundary by steering toward the center.
		if next.X < margin || next.X > sgAreaSide-margin ||
			next.Y < margin || next.Y > sgAreaSide-margin {
			heading = math.Atan2(sgAreaSide/2-cur.Y, sgAreaSide/2-cur.X) + r.Range(-0.3, 0.3)
			next = cur.Add(c.StopSpacing*math.Cos(heading), c.StopSpacing*math.Sin(heading))
		}
		stops = append(stops, next)
		cur = next
	}
	return sgRoute{stops: stops}
}

// drawSGTrip makes one bus ride's random choices: a route by ridership, and
// on it a ride of 4-14 stops (clamped to the route end), whose points are
// the visited stops.
func drawSGTrip(c Config, routes []sgRoute, cdf []float64, r *rng.RNG) tripPlan {
	stops := routes[sampleCDF(cdf, r)].stops
	n := len(stops)
	// Ride length first (4..15 inter-stop hops, mean 9.5 ≈ 4.3 km at the
	// default spacing), then a boarding stop that fits; only rides longer
	// than the whole route get clamped.
	ride := 4 + r.Intn(12)
	if ride > n-1 {
		ride = n - 1
	}
	board := r.Intn(n - ride)
	p := tripPlan{stops: stops[board : board+ride+1]}
	p.drawPace(c.BusSpeedMPS, r)
	return p
}

// sampleCDF draws an index proportionally to the weights behind the
// cumulative distribution.
func sampleCDF(cdf []float64, r *rng.RNG) int {
	u := r.Float64() * cdf[len(cdf)-1]
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
