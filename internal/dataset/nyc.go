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

// generateNYC builds the taxi dataset.
func generateNYC(c Config, r *rng.RNG) (*Dataset, error) {
	grid := newNYCGrid(c, r.Derive("grid"))

	trips := make([]trajectory.Trajectory, 0, c.Trajectories)
	tripRNG := r.Derive("trips")
	for i := 0; i < c.Trajectories; i++ {
		trips = append(trips, genNYCTrip(grid, tripRNG))
	}
	tdb, err := trajectory.NewDB(trips)
	if err != nil {
		return nil, err
	}

	bills := genNYCBillboards(c, grid, r.Derive("billboards"))
	return &Dataset{Config: c, Trajectories: tdb, Billboards: billboard.NewDB(bills)}, nil
}

// genNYCBillboards places the billboard inventory on the grid. It is shared
// by the materializing generator above and the streaming paper-scale build
// (stream.go); both derive bbRNG from the same "billboards" substream, so
// inventories are identical between the two paths.
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

// genNYCTrip samples one L-shaped grid trip:
// origin → (along origin street to the via avenue) → (along the via avenue
// to the destination street) → (along the destination street to the
// destination avenue).
func genNYCTrip(g *nycGrid, r *rng.RNG) trajectory.Trajectory {
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

	waypoints := []geo.Point{
		{X: g.avenueX[a0], Y: g.streetY[s0]},
		{X: g.avenueX[via], Y: g.streetY[s0]},
		{X: g.avenueX[via], Y: g.streetY[s1]},
		{X: g.avenueX[a1], Y: g.streetY[s1]},
	}
	points := densify(waypoints, nycTripPointSpacing)
	return finishTrip(points, c.TripSpeedMPS, r)
}

// densify resamples a waypoint polyline at roughly the given spacing,
// always keeping the waypoints themselves. The output is allocated once at
// its exact length: trips hold most of a generated dataset's memory, and
// append's doubling would leave up to half of every trip's points as slack
// and garbage.
func densify(waypoints []geo.Point, spacing float64) []geo.Point {
	n := 1
	for i := 1; i < len(waypoints); i++ {
		d := waypoints[i-1].Dist(waypoints[i])
		n += int(d / spacing)
		if d > 0 {
			n++
		}
	}
	out := make([]geo.Point, 1, n)
	out[0] = waypoints[0]
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

// finishTrip attaches travel-time offsets (cumulative distance over a noisy
// speed) and a random start time within one day.
func finishTrip(points []geo.Point, speedMPS float64, r *rng.RNG) trajectory.Trajectory {
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

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
