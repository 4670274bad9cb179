package dataset

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/coverage"
	"repro/internal/geo"
	"repro/internal/influence"
)

// testNYC/testSG are small but statistically meaningful test scales.
func testNYC(t *testing.T) *Dataset {
	t.Helper()
	d, err := Generate(DefaultNYC(7).Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testSG(t *testing.T) *Dataset {
	t.Helper()
	d, err := Generate(DefaultSG(7).Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func buildU(t *testing.T, d *Dataset, lambda float64) *coverage.Universe {
	t.Helper()
	u, err := d.BuildUniverse(lambda)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultNYC(1).Validate(); err != nil {
		t.Errorf("default NYC invalid: %v", err)
	}
	if err := DefaultSG(1).Validate(); err != nil {
		t.Errorf("default SG invalid: %v", err)
	}
	bad := []Config{
		{},
		{City: NYC, Trajectories: 10}, // no grid
		{City: NYC, Trajectories: 0, Avenues: 5, Streets: 5},
		{City: SG, Trajectories: 10}, // no routes
		{City: City(9), Trajectories: 10},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestScale(t *testing.T) {
	nyc := DefaultNYC(1).Scale(0.5)
	if nyc.Trajectories != 20000 || nyc.Billboards != 200 {
		t.Errorf("NYC Scale(0.5): |T|=%d |U|=%d", nyc.Trajectories, nyc.Billboards)
	}
	sg := DefaultSG(1).Scale(0.5)
	if sg.Trajectories != 27500 || sg.Routes != 24 {
		t.Errorf("SG Scale(0.5): |T|=%d routes=%d", sg.Trajectories, sg.Routes)
	}
	tiny := DefaultNYC(1).Scale(0.000001)
	if tiny.Trajectories < 1 || tiny.Billboards < 1 {
		t.Error("Scale should clamp to at least 1")
	}
}

func TestCityString(t *testing.T) {
	if NYC.String() != "NYC" || SG.String() != "SG" {
		t.Error("City strings wrong")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultNYC(42).Scale(0.01)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trajectories.Len() != b.Trajectories.Len() {
		t.Fatal("same seed gave different |T|")
	}
	for i := 0; i < a.Trajectories.Len(); i++ {
		ta, tb := a.Trajectories.At(i), b.Trajectories.At(i)
		if len(ta.Points) != len(tb.Points) || ta.Points[0] != tb.Points[0] {
			t.Fatalf("same seed gave different trajectory %d", i)
		}
	}
	for i := 0; i < a.Billboards.Len(); i++ {
		if a.Billboards.At(i).Loc != b.Billboards.At(i).Loc {
			t.Fatalf("same seed gave different billboard %d", i)
		}
	}
	c, err := Generate(DefaultNYC(43).Scale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if c.Trajectories.At(0).Points[0] == a.Trajectories.At(0).Points[0] {
		t.Error("different seeds gave identical first trajectory")
	}
}

// TestTable5Calibration checks the dataset statistics against the paper's
// Table 5 (AvgDistance 2.9 km / 569 s for NYC, 4.2 km / 1342 s for SG),
// within a ±15% band.
func TestTable5Calibration(t *testing.T) {
	nyc := testNYC(t).Table5()
	if math.Abs(nyc.AvgDistanceKM-2.9) > 0.45 {
		t.Errorf("NYC AvgDistance = %.2f km, want 2.9 ± 0.45", nyc.AvgDistanceKM)
	}
	if math.Abs(nyc.AvgTravelSec-569) > 90 {
		t.Errorf("NYC AvgTravelTime = %.0f s, want 569 ± 90", nyc.AvgTravelSec)
	}
	sg := testSG(t).Table5()
	if math.Abs(sg.AvgDistanceKM-4.2) > 0.65 {
		t.Errorf("SG AvgDistance = %.2f km, want 4.2 ± 0.65", sg.AvgDistanceKM)
	}
	if math.Abs(sg.AvgTravelSec-1342) > 210 {
		t.Errorf("SG AvgTravelTime = %.0f s, want 1342 ± 210", sg.AvgTravelSec)
	}
}

// TestFigure1Properties checks the distributional signatures of Figure 1:
// NYC influence is more heavy-tailed than SG, and NYC's cumulative
// impression curve rises more slowly (heavier overlap).
func TestFigure1Properties(t *testing.T) {
	// The overlap signature needs realistic billboard density, so this
	// test runs at a quarter of the default scale rather than the tenth
	// used elsewhere (with 40 billboards the top-10% is just 4 boards and
	// the statistic is noise).
	dn, err := Generate(DefaultNYC(7).Scale(0.25))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Generate(DefaultSG(7).Scale(0.25))
	if err != nil {
		t.Fatal(err)
	}
	un := buildU(t, dn, influence.DefaultLambda)
	us := buildU(t, ds, influence.DefaultLambda)

	cn := influence.NormalizedInfluenceCurve(un)
	cs := influence.NormalizedInfluenceCurve(us)
	// Median normalized influence: SG more uniform → higher median.
	if cn[len(cn)/2] >= cs[len(cs)/2] {
		t.Errorf("NYC median normalized influence %.3f should be below SG's %.3f",
			cn[len(cn)/2], cs[len(cs)/2])
	}
	// Impression curve at 25%% of billboards: SG covers more (Fig 1b).
	in := influence.ImpressionCurve(un, []float64{0.25})[0]
	is := influence.ImpressionCurve(us, []float64{0.25})[0]
	if in >= is {
		t.Errorf("NYC impression@25%% = %.3f should be below SG's %.3f", in, is)
	}
	// Overlap among top billboards: NYC heavier.
	on := influence.OverlapRatio(un, un.NumBillboards()/10)
	os := influence.OverlapRatio(us, us.NumBillboards()/10)
	if on <= os {
		t.Errorf("NYC top-10%% overlap %.3f should exceed SG's %.3f", on, os)
	}
}

// TestFigure12Properties checks the λ sensitivity contrast of Figure 12:
// NYC supply grows strongly with λ while SG stays nearly flat below 150 m.
func TestFigure12Properties(t *testing.T) {
	nyc, sg := testNYC(t), testSG(t)
	supply := func(d *Dataset, lambda float64) float64 {
		return float64(buildU(t, d, lambda).TotalSupply())
	}
	n50, n200 := supply(nyc, 50), supply(nyc, 200)
	if n200 < 1.4*n50 {
		t.Errorf("NYC supply should grow strongly with λ: %v → %v", n50, n200)
	}
	s50, s150 := supply(sg, 50), supply(sg, 150)
	if s150 > 1.15*s50 {
		t.Errorf("SG supply should stay nearly flat below λ=150: %v → %v", s50, s150)
	}
}

func TestSGBillboardsAtStops(t *testing.T) {
	d := testSG(t)
	want := d.Config.Routes * d.Config.StopsPerRoute
	if d.Billboards.Len() != want {
		t.Fatalf("SG |U| = %d, want routes × stops = %d", d.Billboards.Len(), want)
	}
	// Every SG trajectory point coincides exactly with some billboard
	// location (bus riders are observed at stops).
	locs := map[[2]float64]bool{}
	for i := 0; i < d.Billboards.Len(); i++ {
		p := d.Billboards.At(i).Loc
		locs[[2]float64{p.X, p.Y}] = true
	}
	for id := 0; id < 50 && id < d.Trajectories.Len(); id++ {
		for _, p := range d.Trajectories.At(id).Points {
			if !locs[[2]float64{p.X, p.Y}] {
				t.Fatalf("trajectory %d has point %v not at any stop", id, p)
			}
		}
	}
}

func TestTrajectoriesHaveValidTimes(t *testing.T) {
	for _, d := range []*Dataset{testNYC(t), testSG(t)} {
		for id := 0; id < 100 && id < d.Trajectories.Len(); id++ {
			tr := d.Trajectories.At(id)
			if tr.TravelTime() <= 0 {
				t.Fatalf("%s trajectory %d has travel time %v", d.Config.City, id, tr.TravelTime())
			}
			if tr.Start.Unix() < 0 || tr.Start.Unix() >= 86400 {
				t.Fatalf("%s trajectory %d start %v outside day", d.Config.City, id, tr.Start.Unix())
			}
		}
	}
}

func TestBuildUniverseAssignsCosts(t *testing.T) {
	d := testNYC(t)
	u := buildU(t, d, influence.DefaultLambda)
	nonzero := 0
	for b := 0; b < d.Billboards.Len(); b++ {
		cost := d.Billboards.At(b).Cost
		deg := u.Degree(b)
		// w = ⌊τ·I/10⌋ with τ ∈ [0.9, 1.1).
		lo := int64(math.Floor(0.9 * float64(deg) / 10))
		hi := int64(math.Floor(1.1 * float64(deg) / 10))
		if cost < lo-1 || cost > hi+1 {
			t.Fatalf("billboard %d cost %d outside [%d, %d] for influence %d", b, cost, lo, hi, deg)
		}
		if cost > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("all costs zero — influence model produced no coverage")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d, err := Generate(DefaultNYC(3).Scale(0.005))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "nyc")
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config.City != NYC || got.Config.Seed != 3 {
		t.Errorf("config round trip: %+v", got.Config)
	}
	if got.Trajectories.Len() != d.Trajectories.Len() {
		t.Errorf("|T| = %d, want %d", got.Trajectories.Len(), d.Trajectories.Len())
	}
	if got.Billboards.Len() != d.Billboards.Len() {
		t.Errorf("|U| = %d, want %d", got.Billboards.Len(), d.Billboards.Len())
	}
	// Coverage built from the reloaded dataset must match the original.
	u1 := buildU(t, d, 100)
	u2 := buildU(t, got, 100)
	for b := 0; b < u1.NumBillboards(); b++ {
		if u1.Degree(b) != u2.Degree(b) {
			t.Fatalf("billboard %d influence drifted through save/load: %d vs %d",
				b, u1.Degree(b), u2.Degree(b))
		}
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Load of missing dir succeeded")
	}
}

func TestDensify(t *testing.T) {
	pts := densify(nil, []geo.Point{{X: 0, Y: 0}, {X: 300, Y: 0}}, 100)
	if len(pts) < 4 {
		t.Fatalf("densify produced %d points, want >= 4", len(pts))
	}
	if pts[0] != (geo.Point{X: 0, Y: 0}) || pts[len(pts)-1] != (geo.Point{X: 300, Y: 0}) {
		t.Fatal("densify lost endpoints")
	}
	for i := 1; i < len(pts); i++ {
		if d := pts[i-1].Dist(pts[i]); d > 101 {
			t.Fatalf("densify gap %v > spacing", d)
		}
	}
	// Zero-length segments must not divide by zero or drop waypoints.
	same := densify(nil, []geo.Point{{X: 5, Y: 5}, {X: 5, Y: 5}}, 100)
	if len(same) != 1 {
		t.Fatalf("densify of coincident points = %d points, want 1", len(same))
	}
	// The output is allocated at its exact length (no append slack): a
	// Manhattan-style polyline with a repeated waypoint and uneven legs.
	legs := densify(nil, []geo.Point{{X: 0, Y: 0}, {X: 0, Y: 0}, {X: 250, Y: 0}, {X: 250, Y: 730}, {X: 40, Y: 730}}, 33)
	if cap(legs) != len(legs) {
		t.Fatalf("densify returned len %d, cap %d; want an exact-size allocation", len(legs), cap(legs))
	}
}

func TestSGRoutesStayInCity(t *testing.T) {
	d := testSG(t)
	for b := 0; b < d.Billboards.Len(); b++ {
		p := d.Billboards.At(b).Loc
		if p.X < -100 || p.X > sgAreaSide+100 || p.Y < -100 || p.Y > sgAreaSide+100 {
			t.Fatalf("stop %d at %v escapes the city square", b, p)
		}
	}
}

func TestNYCPointsFollowGrid(t *testing.T) {
	// Every NYC trajectory point lies on a grid corridor: its X matches
	// an avenue or its Y matches a street (within float tolerance).
	d := testNYC(t)
	cfg := d.Config
	onAvenue := func(x float64) bool {
		rem := math.Mod(x, cfg.AvenueSpacing)
		return rem < 1e-6 || cfg.AvenueSpacing-rem < 1e-6
	}
	onStreet := func(y float64) bool {
		rem := math.Mod(y, cfg.StreetSpacing)
		return rem < 1e-6 || cfg.StreetSpacing-rem < 1e-6
	}
	for id := 0; id < 100 && id < d.Trajectories.Len(); id++ {
		for _, p := range d.Trajectories.At(id).Points {
			if !onAvenue(p.X) && !onStreet(p.Y) {
				t.Fatalf("trajectory %d point %v off the street grid", id, p)
			}
		}
	}
}

func TestNYCSupplyRatioRegime(t *testing.T) {
	// The supply-to-trajectory ratio I*/|T| must stay in a regime where
	// the paper's p=20% workloads are satisfiable (see DESIGN.md §1):
	// demand = 0.2·I* must not exceed |T|, i.e. ratio <= 5. The ratio
	// grows linearly with the billboard count (each board covers a fixed
	// trip fraction), so it is checked at the evaluation scales: 0.1
	// (|U| = 40, ratio around 1.2) and the recorded 0.25 tier (ratio
	// around 3.5). The paper-scale tier is a ROADMAP item.
	for _, scale := range []float64{0.1, 0.25} {
		d, err := Generate(DefaultNYC(7).Scale(scale))
		if err != nil {
			t.Fatal(err)
		}
		u := buildU(t, d, influence.DefaultLambda)
		ratio := float64(u.TotalSupply()) / float64(u.NumTrajectories())
		if ratio < 0.8 || ratio > 5 {
			t.Errorf("NYC I*/|T| = %.2f at scale %v, want 0.8..5 (p=20%% regime)", ratio, scale)
		}
	}
}
