// Package dataset generates the two synthetic city datasets that stand in
// for the paper's proprietary data (Table 5): a New-York-like taxi dataset
// (LAMAR billboards + TLC taxi trips in the paper) and a Singapore-like bus
// dataset (JCDecaux bus-stop billboards + EZ-link trips).
//
// The substitution preserves the properties the paper's evaluation actually
// depends on — documented in DESIGN.md and enforced by tests in this
// package:
//
//   - NYC: heavy-tailed billboard influence with strong coverage overlap
//     among the top billboards (taxi trips funnel along a few popular
//     corridors lined with many billboards), so the cumulative impression
//     curve of Figure 1b rises slowly.
//   - SG: more uniform influence with little overlap (billboards sit at
//     bus stops and see mostly the riders of the routes serving that
//     stop), so the impression curve rises nearly linearly, and coverage
//     is insensitive to λ below the stop spacing (Figure 12b).
//
// All generation is deterministic in Config.Seed.
package dataset

import (
	"fmt"

	"repro/internal/billboard"
	"repro/internal/coverage"
	"repro/internal/influence"
	"repro/internal/rng"
	"repro/internal/trajectory"
)

// City selects the generator mode.
type City uint8

const (
	// NYC is the Manhattan-like taxi mode.
	NYC City = iota
	// SG is the Singapore-like bus mode.
	SG
)

func (c City) String() string {
	switch c {
	case NYC:
		return "NYC"
	case SG:
		return "SG"
	default:
		return fmt.Sprintf("City(%d)", uint8(c))
	}
}

// Config parameterizes a synthetic city. Zero values select the defaults of
// DefaultNYC/DefaultSG; construct configs through those helpers and adjust.
type Config struct {
	City City
	// Seed drives all randomness in the generator.
	Seed uint64
	// Trajectories is |T|, the number of trips to generate.
	Trajectories int

	// NYC knobs.
	Avenues       int     // north-south corridors
	Streets       int     // east-west corridors
	AvenueSpacing float64 // meters between avenues
	StreetSpacing float64 // meters between streets
	Billboards    int     // billboard count (NYC only; SG derives it)
	CorridorSkew  float64 // Zipf exponent of corridor popularity
	TripSpeedMPS  float64 // average trip speed, meters/second

	// SG knobs.
	Routes        int     // number of bus routes
	StopsPerRoute int     // stops per route
	StopSpacing   float64 // meters between consecutive stops
	RouteSkew     float64 // Zipf exponent of route ridership
	BusSpeedMPS   float64 // average bus speed incl. dwell, meters/second
}

// DefaultNYC returns the default NYC configuration: ~1/40 of the paper's
// scale (Table 5: |T| = 1.7M, |U| = 1462), tuned so AvgDistance ≈ 2.9 km
// and AvgTravelTime ≈ 569 s match the paper's reported statistics.
func DefaultNYC(seed uint64) Config {
	return Config{
		City:          NYC,
		Seed:          seed,
		Trajectories:  40000,
		Avenues:       12,
		Streets:       110,
		AvenueSpacing: 500,
		StreetSpacing: 220,
		Billboards:    400,
		CorridorSkew:  1.4,
		TripSpeedMPS:  2900.0 / 569.0, // ≈ 5.1 m/s, Table 5 ratio
	}
}

// DefaultSG returns the default SG configuration: ~1/40 of the paper's
// scale (Table 5: |T| = 2.2M, |U| = 4092), tuned so AvgDistance ≈ 4.2 km
// and AvgTravelTime ≈ 1342 s match the paper's reported statistics.
// Billboards are derived: one per bus stop, |U| = Routes × StopsPerRoute.
func DefaultSG(seed uint64) Config {
	return Config{
		City:          SG,
		Seed:          seed,
		Trajectories:  55000,
		Routes:        48,
		StopsPerRoute: 24,
		StopSpacing:   450,
		RouteSkew:     0.15,
		BusSpeedMPS:   4200.0 / 1342.0, // ≈ 3.1 m/s, Table 5 ratio
	}
}

// Scale returns a copy of the config with trajectory and billboard counts
// multiplied by f (minimum 1 each). Street-grid geometry is unchanged.
// Use small f for fast tests, f > 1 to approach the paper's raw scale.
func (c Config) Scale(f float64) Config {
	scale := func(n int) int {
		v := int(float64(n) * f)
		if v < 1 {
			v = 1
		}
		return v
	}
	c.Trajectories = scale(c.Trajectories)
	if c.City == NYC {
		c.Billboards = scale(c.Billboards)
	} else {
		c.Routes = scale(c.Routes)
	}
	return c
}

// Validate reports whether the configuration can be generated.
func (c Config) Validate() error {
	if c.Trajectories < 1 {
		return fmt.Errorf("dataset: trajectories %d < 1", c.Trajectories)
	}
	switch c.City {
	case NYC:
		if c.Avenues < 2 || c.Streets < 2 {
			return fmt.Errorf("dataset: grid %d×%d too small", c.Avenues, c.Streets)
		}
		if c.AvenueSpacing <= 0 || c.StreetSpacing <= 0 {
			return fmt.Errorf("dataset: non-positive grid spacing")
		}
		if c.Billboards < 1 {
			return fmt.Errorf("dataset: billboards %d < 1", c.Billboards)
		}
		if c.TripSpeedMPS <= 0 {
			return fmt.Errorf("dataset: trip speed %v <= 0", c.TripSpeedMPS)
		}
	case SG:
		if c.Routes < 1 || c.StopsPerRoute < 2 {
			return fmt.Errorf("dataset: routes %d × stops %d too small", c.Routes, c.StopsPerRoute)
		}
		if c.StopSpacing <= 0 {
			return fmt.Errorf("dataset: stop spacing %v <= 0", c.StopSpacing)
		}
		if c.BusSpeedMPS <= 0 {
			return fmt.Errorf("dataset: bus speed %v <= 0", c.BusSpeedMPS)
		}
	default:
		return fmt.Errorf("dataset: unknown city %d", c.City)
	}
	return nil
}

// Dataset bundles the generated trajectory and billboard databases.
type Dataset struct {
	Config       Config
	Trajectories *trajectory.DB
	Billboards   *billboard.DB
}

// Generate builds the synthetic dataset for the configuration.
func Generate(c Config) (*Dataset, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	bills, draw, err := newCity(c)
	if err != nil {
		return nil, err
	}
	trips := make([]trajectory.Trajectory, c.Trajectories)
	for i := range trips {
		p := draw()
		trips[i] = p.trip()
	}
	tdb, err := trajectory.NewDB(trips)
	if err != nil {
		return nil, err
	}
	return &Dataset{Config: c, Trajectories: tdb, Billboards: billboard.NewDB(bills)}, nil
}

// newCity builds the fixed infrastructure of the configured city — the
// street grid or bus routes, and the billboard inventory — and returns the
// inventory with the city's trip draw, which makes each successive trip's
// random choices. Generate and GenerateUniverse both start here, so they see
// the same city and the same trips: every part comes from its own named
// substream of the city's seed, and trips from the one "trips" substream,
// in trip order.
func newCity(c Config) ([]billboard.Billboard, func() tripPlan, error) {
	r := rng.New(c.Seed).Derive(c.City.String())
	tripRNG := r.Derive("trips")
	switch c.City {
	case NYC:
		grid := newNYCGrid(c, r.Derive("grid"))
		bills := genNYCBillboards(c, grid, r.Derive("billboards"))
		return bills, func() tripPlan { return grid.drawTrip(tripRNG) }, nil
	case SG:
		routes, bills, cdf := genSGNetwork(c, r)
		return bills, func() tripPlan { return drawSGTrip(c, routes, cdf, tripRNG) }, nil
	default:
		return nil, nil, fmt.Errorf("dataset: unknown city %d", c.City)
	}
}

// BuildUniverse runs the influence model over the dataset at the given λ
// and assigns influence-proportional billboard costs.
func (d *Dataset) BuildUniverse(lambda float64) (*coverage.Universe, error) {
	u, err := influence.BuildCoverage(d.Trajectories, d.Billboards, influence.Options{Lambda: lambda})
	if err != nil {
		return nil, err
	}
	infl := make([]int, u.NumBillboards())
	for b := range infl {
		infl[b] = u.Degree(b)
	}
	costRNG := rng.New(d.Config.Seed).Derive("costs")
	if err := d.Billboards.AssignCosts(infl, costRNG); err != nil {
		return nil, err
	}
	return u, nil
}

// Table5Row is one row of the paper's Table 5.
type Table5Row struct {
	Name          string
	NumTraj       int
	NumBillboards int
	AvgDistanceKM float64
	AvgTravelSec  float64
}

// Table5 computes the dataset-statistics row reported in the paper.
func (d *Dataset) Table5() Table5Row {
	s := d.Trajectories.ComputeStats()
	return Table5Row{
		Name:          d.Config.City.String(),
		NumTraj:       s.Count,
		NumBillboards: d.Billboards.Len(),
		AvgDistanceKM: s.AvgDistanceM / 1000,
		AvgTravelSec:  s.AvgTravelTime,
	}
}
