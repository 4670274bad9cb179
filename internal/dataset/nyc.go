package dataset

import (
	"math"
	"time"

	"repro/internal/billboard"
	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/trajectory"
)

// The NYC generator models a Manhattan-like street grid: vertical avenues
// and horizontal streets with Zipf-skewed corridor popularity. Taxi trips
// are L-shaped grid routes that detour through a popular "via" avenue, so
// traffic funnels onto a few corridors. Billboards are placed roadside near
// popular intersections (with a positional offset from the corner), which
// yields the paper's NYC signature: heavy-tailed billboard influence,
// heavy coverage overlap among top billboards, and supply that grows with λ
// (billboards sit 20-120 m off the travel paths).

// nycGrid precomputes corridor geometry and popularity.
type nycGrid struct {
	cfg          Config
	avenueX      []float64 // x coordinate per avenue
	streetY      []float64 // y coordinate per street
	avenueW      []float64 // popularity weight per avenue
	streetW      []float64 // popularity weight per street
	nodeCDF      []float64 // cumulative node weights, laid out street-major
	nodeTotal    float64
	premiumCDF   []float64 // sharpened-weight CDF for premium billboard sites
	premiumTotal float64
}

func newNYCGrid(c Config, r *rng.RNG) *nycGrid {
	g := &nycGrid{cfg: c}
	g.avenueX = make([]float64, c.Avenues)
	for a := range g.avenueX {
		g.avenueX[a] = float64(a) * c.AvenueSpacing
	}
	g.streetY = make([]float64, c.Streets)
	for s := range g.streetY {
		g.streetY[s] = float64(s) * c.StreetSpacing
	}

	// Zipf corridor popularity, shuffled so the busy corridors are not
	// all adjacent. Streets are less skewed than avenues.
	g.avenueW = zipfWeights(r.Derive("avenues"), c.Avenues, c.CorridorSkew)
	g.streetW = zipfWeights(r.Derive("streets"), c.Streets, c.CorridorSkew*0.6)

	// A "midtown" band of streets gets a popularity boost.
	lo, hi := c.Streets*2/5, c.Streets*3/5
	for s := lo; s < hi; s++ {
		g.streetW[s] *= 2
	}

	g.nodeCDF = make([]float64, c.Avenues*c.Streets)
	sum := 0.0
	for s := 0; s < c.Streets; s++ {
		for a := 0; a < c.Avenues; a++ {
			sum += g.avenueW[a] * g.streetW[s]
			g.nodeCDF[s*c.Avenues+a] = sum
		}
	}
	g.nodeTotal = sum

	// Premium billboard placement uses a sharper (power-1.5) popularity
	// profile: real premium inventory clusters on the handful of corners
	// everyone drives past, which is what makes the top boards' coverage
	// overlap heavily (Figure 1b's slowly rising NYC curve).
	g.premiumCDF = make([]float64, c.Avenues*c.Streets)
	sum = 0.0
	for s := 0; s < c.Streets; s++ {
		for a := 0; a < c.Avenues; a++ {
			w := g.avenueW[a] * g.streetW[s]
			sum += math.Pow(w, 1.5)
			g.premiumCDF[s*c.Avenues+a] = sum
		}
	}
	g.premiumTotal = sum
	return g
}

// zipfWeights returns n weights following a shuffled Zipf(s) profile.
func zipfWeights(r *rng.RNG, n int, s float64) []float64 {
	w := make([]float64, n)
	for k := range w {
		w[k] = 1 / math.Pow(float64(k+1), s)
	}
	r.Shuffle(n, func(i, j int) { w[i], w[j] = w[j], w[i] })
	return w
}

// sampleNode draws an intersection (avenue, street) proportionally to node
// popularity.
func (g *nycGrid) sampleNode(r *rng.RNG) (a, s int) {
	return g.sampleFromCDF(r, g.nodeCDF, g.nodeTotal)
}

// samplePremiumNode draws an intersection proportionally to sharpened node
// popularity — the placement profile of premium billboard sites.
func (g *nycGrid) samplePremiumNode(r *rng.RNG) (a, s int) {
	return g.sampleFromCDF(r, g.premiumCDF, g.premiumTotal)
}

func (g *nycGrid) sampleFromCDF(r *rng.RNG, cdf []float64, total float64) (a, s int) {
	u := r.Float64() * total
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo % g.cfg.Avenues, lo / g.cfg.Avenues
}

// sampleAvenueNear draws an avenue proportionally to popularity from the
// window [min(a0,a1)−1, max(a0,a1)+1], modelling drivers who pick the
// busiest corridor along (not across) their way.
func (g *nycGrid) sampleAvenueNear(r *rng.RNG, a0, a1 int) int {
	lo, hi := a0, a1
	if lo > hi {
		lo, hi = hi, lo
	}
	lo = clampInt(lo-1, 0, len(g.avenueW)-1)
	hi = clampInt(hi+1, 0, len(g.avenueW)-1)
	total := 0.0
	for a := lo; a <= hi; a++ {
		total += g.avenueW[a]
	}
	u := r.Float64() * total
	acc := 0.0
	for a := lo; a <= hi; a++ {
		acc += g.avenueW[a]
		if u <= acc {
			return a
		}
	}
	return hi
}

// nycTripPointSpacing is the along-route sampling interval for trajectory
// points, in meters. It is finer than λ so distance-to-path is measured
// faithfully.
const nycTripPointSpacing = 90

// genNYCBillboards places the billboard inventory on the grid.
func genNYCBillboards(c Config, grid *nycGrid, bbRNG *rng.RNG) []billboard.Billboard {
	bills := make([]billboard.Billboard, 0, c.Billboards)
	for i := 0; i < c.Billboards; i++ {
		// Mixed placement: 55% of the inventory chases the popular
		// corridors (LAMAR-style premium boards with huge audiences and
		// heavy mutual overlap); the rest is spread uniformly over the
		// grid (neighborhood boards with small audiences). The mixture
		// produces the paper's heavy-tailed NYC influence distribution
		// and keeps the total supply I* a small multiple of |T|.
		var a, s int
		if bbRNG.Float64() < 0.55 {
			a, s = grid.samplePremiumNode(bbRNG)
		} else {
			a, s = bbRNG.Intn(c.Avenues), bbRNG.Intn(c.Streets)
		}
		// Roadside placement: 20-120 m from the corner in a random
		// direction, so coverage grows with λ as in the paper's Fig 12a.
		dist := bbRNG.Range(20, 120)
		angle := bbRNG.Range(0, 2*math.Pi)
		loc := geo.Point{
			X: grid.avenueX[a] + dist*math.Cos(angle),
			Y: grid.streetY[s] + dist*math.Sin(angle),
		}
		bills = append(bills, billboard.Billboard{Loc: loc})
	}
	return bills
}

// drawTrip makes one L-shaped grid trip's random choices:
// origin → (along origin street to the via avenue) → (along the via avenue
// to the destination street) → (along the destination street to the
// destination avenue).
func (g *nycGrid) drawTrip(r *rng.RNG) tripPlan {
	c := g.cfg
	a0, s0 := g.sampleNode(r)

	// North-south displacement dominates (Manhattan trips): 4-14 blocks.
	ds := 4 + r.Intn(11)
	if r.Float64() < 0.5 {
		ds = -ds
	}
	s1 := clampInt(s0+ds, 0, c.Streets-1)
	// East-west displacement: up to 3 avenues.
	da := r.Intn(4)
	if r.Float64() < 0.5 {
		da = -da
	}
	a1 := clampInt(a0+da, 0, c.Avenues-1)
	// Traffic funnels through a popular via avenue chosen near the
	// origin-destination corridor (drivers do not detour across town).
	via := g.sampleAvenueNear(r, a0, a1)

	p := tripPlan{corners: [4]geo.Point{
		{X: g.avenueX[a0], Y: g.streetY[s0]},
		{X: g.avenueX[via], Y: g.streetY[s0]},
		{X: g.avenueX[via], Y: g.streetY[s1]},
		{X: g.avenueX[a1], Y: g.streetY[s1]},
	}}
	p.drawPace(c.TripSpeedMPS, r)
	return p
}

// tripPlan is one trip's random choices: the route its points follow, its
// speed and its start time. Drawing plans is sequential, since every trip
// takes its choices from the one "trips" substream in trip order; laying a
// plan out into points and offsets draws nothing, so plans can be laid out
// in any order, on any core.
type tripPlan struct {
	// corners is an NYC trip's L-shaped route, densified at
	// nycTripPointSpacing when stops is nil.
	corners [4]geo.Point
	// stops, when non-nil, are the trip's points: an SG ride's stops, a
	// view of its route's stops.
	stops []geo.Point
	speed float64 // meters/second, the city's speed with this trip's noise
	start int32   // seconds into the day
}

// drawPace draws the trip's speed, the city's speedMPS with ±15% noise, and
// its start time within one day.
func (p *tripPlan) drawPace(speedMPS float64, r *rng.RNG) {
	p.speed = speedMPS * r.Range(0.85, 1.15)
	p.start = int32(r.Intn(86400))
}

// appendPoints appends the trip's points to dst.
func (p *tripPlan) appendPoints(dst []geo.Point) []geo.Point {
	if p.stops != nil {
		return append(dst, p.stops...)
	}
	return densify(dst, p.corners[:], nycTripPointSpacing)
}

// extent returns the bounding box of the trip's route, which holds every
// point up to rounding in the interpolation, and the number of its points.
func (p *tripPlan) extent() (geo.Rect, int) {
	if p.stops != nil {
		return geo.BoundingRect(p.stops), len(p.stops)
	}
	return geo.BoundingRect(p.corners[:]), densifiedLen(p.corners[:], nycTripPointSpacing)
}

// trip builds the trajectory p plans, with its own points and offsets.
func (p *tripPlan) trip() trajectory.Trajectory {
	points := p.appendPoints(nil)
	offsets := make([]float64, len(points))
	timeOffsets(offsets, points, p.speed)
	return trajectory.Trajectory{Points: points, Start: time.Unix(int64(p.start), 0).UTC(), Offsets: offsets}
}

// timeOffsets sets offsets[i] to the time to travel at speed from points[0]
// to points[i] along the path, and returns the path's length. offsets must
// have the length of points.
func timeOffsets(offsets []float64, points []geo.Point, speed float64) float64 {
	cum := 0.0
	for i := 1; i < len(points); i++ {
		cum += points[i-1].Dist(points[i])
		offsets[i] = cum / speed
	}
	if len(offsets) > 0 {
		offsets[0] = 0
	}
	return cum
}

// densifiedLen returns the number of points densify makes of waypoints.
func densifiedLen(waypoints []geo.Point, spacing float64) int {
	n := 1
	for i := 1; i < len(waypoints); i++ {
		d := waypoints[i-1].Dist(waypoints[i])
		n += int(d / spacing)
		if d > 0 {
			n++
		}
	}
	return n
}

// densify appends to dst the waypoint polyline resampled at roughly the
// given spacing, always keeping the waypoints themselves. When dst lacks
// room, it grows to exactly the length needed: trips hold most of a
// generated dataset's memory, and append's doubling would leave up to half
// of every trip's points as slack and garbage.
func densify(dst, waypoints []geo.Point, spacing float64) []geo.Point {
	if n := densifiedLen(waypoints, spacing); cap(dst)-len(dst) < n {
		dst = append(make([]geo.Point, 0, len(dst)+n), dst...)
	}
	dst = append(dst, waypoints[0])
	for i := 1; i < len(waypoints); i++ {
		from, to := waypoints[i-1], waypoints[i]
		d := from.Dist(to)
		steps := int(d / spacing)
		for k := 1; k <= steps; k++ {
			dst = append(dst, from.Lerp(to, float64(k)/float64(steps+1)))
		}
		if d > 0 {
			dst = append(dst, to)
		}
	}
	return dst
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
