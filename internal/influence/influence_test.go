package influence

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/billboard"
	"repro/internal/coverage"
	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/trajectory"
)

func makeTDB(t *testing.T, trajs []trajectory.Trajectory) *trajectory.DB {
	t.Helper()
	db, err := trajectory.NewDB(trajs)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestBuildCoverageBasic(t *testing.T) {
	// Billboard at origin with λ=100; three trajectories: one passing at
	// 50m, one at 150m, one crossing through.
	tdb := makeTDB(t, []trajectory.Trajectory{
		{Points: []geo.Point{{X: 50, Y: 0}, {X: 50, Y: 500}}},
		{Points: []geo.Point{{X: 150, Y: 0}, {X: 150, Y: 500}}},
		{Points: []geo.Point{{X: -500, Y: 0}, {X: 0, Y: 0}, {X: 500, Y: 0}}},
	})
	bdb := billboard.NewDB([]billboard.Billboard{{Loc: geo.Point{X: 0, Y: 0}}})
	u, err := BuildCoverage(tdb, bdb, Options{Lambda: 100})
	if err != nil {
		t.Fatal(err)
	}
	if u.NumBillboards() != 1 || u.NumTrajectories() != 3 {
		t.Fatalf("dims %d/%d", u.NumBillboards(), u.NumTrajectories())
	}
	l := u.List(0)
	if len(l) != 2 || !l.Contains(0) || !l.Contains(2) {
		t.Fatalf("coverage list = %v, want [0 2]", l)
	}
}

func TestBuildCoverageLambdaMonotone(t *testing.T) {
	// Larger λ can only grow coverage (for static billboards).
	r := rng.New(4)
	trajs := make([]trajectory.Trajectory, 100)
	for i := range trajs {
		pts := make([]geo.Point, 5)
		x, y := r.Range(0, 2000), r.Range(0, 2000)
		for j := range pts {
			pts[j] = geo.Point{X: x + r.Range(-300, 300), Y: y + r.Range(-300, 300)}
		}
		trajs[i] = trajectory.Trajectory{Points: pts}
	}
	tdb := makeTDB(t, trajs)
	bills := make([]billboard.Billboard, 20)
	for i := range bills {
		bills[i] = billboard.Billboard{Loc: geo.Point{X: r.Range(0, 2000), Y: r.Range(0, 2000)}}
	}
	bdb := billboard.NewDB(bills)

	var prev *coverage.Universe
	for _, lambda := range []float64{50, 100, 150, 200} {
		u, err := BuildCoverage(tdb, bdb, Options{Lambda: lambda})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			for b := 0; b < u.NumBillboards(); b++ {
				if u.Degree(b) < prev.Degree(b) {
					t.Fatalf("λ=%v billboard %d coverage shrank: %d < %d",
						lambda, b, u.Degree(b), prev.Degree(b))
				}
				for _, id := range prev.List(b) {
					if !u.List(b).Contains(id) {
						t.Fatalf("λ=%v billboard %d lost trajectory %d", lambda, b, id)
					}
				}
			}
		}
		prev = u
	}
}

func TestBuildCoverageMatchesBruteForce(t *testing.T) {
	r := rng.New(99)
	trajs := make([]trajectory.Trajectory, 60)
	for i := range trajs {
		n := 2 + r.Intn(6)
		pts := make([]geo.Point, n)
		for j := range pts {
			pts[j] = geo.Point{X: r.Range(0, 1500), Y: r.Range(0, 1500)}
		}
		trajs[i] = trajectory.Trajectory{Points: pts}
	}
	tdb := makeTDB(t, trajs)
	bills := make([]billboard.Billboard, 15)
	for i := range bills {
		bills[i] = billboard.Billboard{Loc: geo.Point{X: r.Range(0, 1500), Y: r.Range(0, 1500)}}
	}
	bdb := billboard.NewDB(bills)
	const lambda = 120
	u, err := BuildCoverage(tdb, bdb, Options{Lambda: lambda, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < bdb.Len(); b++ {
		want := map[int32]bool{}
		for id := 0; id < tdb.Len(); id++ {
			for _, p := range tdb.At(id).Points {
				if p.Dist(bdb.At(b).Loc) <= lambda {
					want[int32(id)] = true
					break
				}
			}
		}
		got := u.List(b)
		if len(got) != len(want) {
			t.Fatalf("billboard %d: %d covered, want %d", b, len(got), len(want))
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("billboard %d wrongly covers %d", b, id)
			}
		}
	}
}

func TestBuildCoverageOptionsValidation(t *testing.T) {
	tdb := makeTDB(t, []trajectory.Trajectory{{Points: []geo.Point{{}}}})
	bdb := billboard.NewDB([]billboard.Billboard{{}})
	if _, err := BuildCoverage(tdb, bdb, Options{Lambda: 0}); err == nil {
		t.Error("lambda=0 accepted")
	}
	if _, err := BuildCoverage(tdb, bdb, Options{Lambda: -5}); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := BuildCoverage(tdb, bdb, Options{Lambda: 100, SlotsPerDay: -1}); err == nil {
		t.Error("negative slots accepted")
	}
}

func TestBuildCoverageEmptyInputs(t *testing.T) {
	tdb := makeTDB(t, nil)
	bdb := billboard.NewDB(nil)
	u, err := BuildCoverage(tdb, bdb, Options{Lambda: 100})
	if err != nil {
		t.Fatal(err)
	}
	if u.NumBillboards() != 0 || u.NumTrajectories() != 0 {
		t.Error("empty build should yield empty universe")
	}
}

func TestDigitalSlotTimeFiltering(t *testing.T) {
	// One trajectory passing the panel in the morning (08:00), another in
	// the evening (20:00). With 2 slots/day, slot 0 covers [00:00,12:00)
	// and slot 1 covers [12:00,24:00).
	morning := time.Date(2020, 1, 1, 8, 0, 0, 0, time.UTC)
	evening := time.Date(2020, 1, 1, 20, 0, 0, 0, time.UTC)
	tdb := makeTDB(t, []trajectory.Trajectory{
		{Points: []geo.Point{{X: 0, Y: 0}}, Start: morning, Offsets: []float64{0}},
		{Points: []geo.Point{{X: 0, Y: 0}}, Start: evening, Offsets: []float64{0}},
	})
	static := billboard.NewDB([]billboard.Billboard{{Loc: geo.Point{X: 0, Y: 0}}})
	panels, err := static.ExpandDigital([]int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	u, err := BuildCoverage(tdb, panels, Options{Lambda: 50, SlotsPerDay: 2})
	if err != nil {
		t.Fatal(err)
	}
	if u.NumBillboards() != 2 {
		t.Fatalf("want 2 slot billboards, got %d", u.NumBillboards())
	}
	if !u.List(0).Contains(0) || u.List(0).Contains(1) {
		t.Errorf("slot 0 coverage = %v, want morning only", u.List(0))
	}
	if !u.List(1).Contains(1) || u.List(1).Contains(0) {
		t.Errorf("slot 1 coverage = %v, want evening only", u.List(1))
	}
	// Without time filtering both slots cover both trajectories.
	u2, err := BuildCoverage(tdb, panels, Options{Lambda: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(u2.List(0)) != 2 || len(u2.List(1)) != 2 {
		t.Error("slots should behave as static when filtering is off")
	}
}

// TestDigitalSlotFilterMatchesBruteForce checks the digital-slot time
// filter against brute force on trips whose points spread over many grid
// cells and whose encounters fall in different slots, so a filter that
// read a point's time by the wrong index (say, trip order instead of grid
// position) would misjudge some encounters. The trips hold enough points
// for several join chunks, and the static billboards check the join
// itself across chunk boundaries.
func TestDigitalSlotFilterMatchesBruteForce(t *testing.T) {
	const lambda = 100
	r := rng.New(2024)
	day := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	trajs := make([]trajectory.Trajectory, 30000)
	for i := range trajs {
		n := 3 + r.Intn(6)
		pts := make([]geo.Point, n)
		offs := make([]float64, n)
		for j := range pts {
			pts[j] = geo.Point{X: r.Range(0, 1500), Y: r.Range(0, 1500)}
			if j > 0 {
				offs[j] = offs[j-1] + r.Range(1, 4*3600)
			}
		}
		start := day.Add(time.Duration(r.Intn(secondsPerDay)) * time.Second)
		trajs[i] = trajectory.Trajectory{Points: pts, Start: start, Offsets: offs}
	}
	tdb := makeTDB(t, trajs)
	if points := tdb.ComputeStats().TotalPoints; points < 2*chunkPoints {
		t.Fatalf("%d points span a single join chunk", points)
	}
	bills := make([]billboard.Billboard, 30)
	for i := range bills {
		bills[i] = billboard.Billboard{Loc: geo.Point{X: r.Range(0, 1500), Y: r.Range(0, 1500)}}
	}
	static := billboard.NewDB(bills)
	for _, slots := range []int{2, 4} {
		bdb, err := static.ExpandDigital([]int{0, 3, 4, 7, 11, 12, 18, 25, 29}, slots)
		if err != nil {
			t.Fatal(err)
		}
		u, err := BuildCoverage(tdb, bdb, Options{Lambda: lambda, SlotsPerDay: slots, Parallelism: 3})
		if err != nil {
			t.Fatal(err)
		}
		filtered := 0
		for b := 0; b < bdb.Len(); b++ {
			bb := bdb.At(b)
			var want coverage.List
			for id := 0; id < tdb.Len(); id++ {
				tr := tdb.At(id)
				for j, p := range tr.Points {
					if p.Dist2(bb.Loc) > lambda*lambda {
						continue
					}
					sec := math.Mod(float64(tr.Start.Unix()%secondsPerDay)+tr.Offsets[j], secondsPerDay)
					if bb.Kind != billboard.DigitalSlot || int(sec*float64(slots)/secondsPerDay) == int(bb.Slot) {
						want = append(want, int32(id))
						break
					}
					filtered++
				}
			}
			if got := u.List(b); !slices.Equal(got, want) {
				t.Fatalf("slots=%d billboard %d (%v): covers %v, want %v", slots, b, bb.Kind, got, want)
			}
		}
		if filtered == 0 {
			t.Fatalf("slots=%d: no encounter fell outside its slot; the filter went untested", slots)
		}
	}
}

// TestBuildCoverageWorkerInvariance: the chunked fill hands chunks to
// workers in whatever order they ask, so the universe must not depend on
// how many there are. Two and three workers are checked against one, with
// and without the digital-slot time filter, on trips that span several
// join chunks.
func TestBuildCoverageWorkerInvariance(t *testing.T) {
	const lambda = 100
	r := rng.New(77)
	day := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	trajs := make([]trajectory.Trajectory, 40000)
	for i := range trajs {
		n := 2 + r.Intn(5)
		pts := make([]geo.Point, n)
		offs := make([]float64, n)
		for j := range pts {
			pts[j] = geo.Point{X: r.Range(0, 2000), Y: r.Range(0, 2000)}
			if j > 0 {
				offs[j] = offs[j-1] + r.Range(1, 3600)
			}
		}
		start := day.Add(time.Duration(r.Intn(secondsPerDay)) * time.Second)
		trajs[i] = trajectory.Trajectory{Points: pts, Start: start, Offsets: offs}
	}
	tdb := makeTDB(t, trajs)
	if points := tdb.ComputeStats().TotalPoints; points < 2*chunkPoints {
		t.Fatalf("%d points span a single join chunk", points)
	}
	bills := make([]billboard.Billboard, 40)
	for i := range bills {
		bills[i] = billboard.Billboard{Loc: geo.Point{X: r.Range(0, 2000), Y: r.Range(0, 2000)}}
	}
	static := billboard.NewDB(bills)
	digital, err := static.ExpandDigital([]int{1, 5, 9, 20, 33}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		bdb   *billboard.DB
		slots int
	}{{static, 0}, {digital, 4}} {
		build := func(workers int) *coverage.Universe {
			u, err := BuildCoverage(tdb, c.bdb, Options{Lambda: lambda, SlotsPerDay: c.slots, Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			return u
		}
		want := build(1)
		for _, workers := range []int{2, 3} {
			got := build(workers)
			for b := 0; b < c.bdb.Len(); b++ {
				if !slices.Equal(got.List(b), want.List(b)) {
					t.Fatalf("slots=%d workers=%d billboard %d: %d trips covered, %d with one worker",
						c.slots, workers, b, len(got.List(b)), len(want.List(b)))
				}
			}
		}
	}
}

func TestSlotOf(t *testing.T) {
	if slotOf(0, 2) != 0 || slotOf(43199, 2) != 0 || slotOf(43200, 2) != 1 || slotOf(86399, 2) != 1 {
		t.Error("slotOf boundaries wrong")
	}
	if slotOf(86400, 2) != 1 { // clamped
		t.Error("slotOf should clamp overflow")
	}
}

func TestNormalizedInfluenceCurve(t *testing.T) {
	u := coverage.MustUniverse(10, []coverage.List{
		{0, 1, 2, 3}, // degree 4
		{4, 5},       // degree 2
		{6},          // degree 1
	})
	got := NormalizedInfluenceCurve(u)
	want := []float64{1, 0.5, 0.25}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("curve = %v, want %v", got, want)
		}
	}
	empty := coverage.MustUniverse(0, nil)
	if len(NormalizedInfluenceCurve(empty)) != 0 {
		t.Error("empty universe should give empty curve")
	}
	allZero := coverage.MustUniverse(5, []coverage.List{{}, {}})
	z := NormalizedInfluenceCurve(allZero)
	if z[0] != 0 || z[1] != 0 {
		t.Error("zero-influence universe should give zero curve")
	}
}

func TestImpressionCurve(t *testing.T) {
	// 10 trajectories; top billboard covers 0-4, second covers 3-7
	// (overlap 3,4), third covers 9.
	u := coverage.MustUniverse(10, []coverage.List{
		{0, 1, 2, 3, 4},
		{3, 4, 5, 6, 7},
		{9},
	})
	got := ImpressionCurve(u, []float64{0, 1.0 / 3, 2.0 / 3, 1})
	want := []float64{0, 0.5, 0.8, 0.9}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ImpressionCurve = %v, want %v", got, want)
		}
	}
	// Fractions given out of order must map back to their positions.
	got2 := ImpressionCurve(u, []float64{1, 0})
	if got2[0] != 0.9 || got2[1] != 0 {
		t.Fatalf("unordered fractions mishandled: %v", got2)
	}
}

func TestImpressionCurveMonotone(t *testing.T) {
	r := rng.New(31)
	lists := make([]coverage.List, 40)
	for i := range lists {
		ids := make([]int32, r.Intn(30))
		for j := range ids {
			ids[j] = int32(r.Intn(500))
		}
		lists[i] = coverage.NewList(ids)
	}
	u := coverage.MustUniverse(500, lists)
	fr := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}
	c := ImpressionCurve(u, fr)
	for i := 1; i < len(c); i++ {
		if c[i] < c[i-1] {
			t.Fatalf("impression curve not monotone: %v", c)
		}
	}
	if c[len(c)-1] > 1 {
		t.Fatalf("impression curve exceeds 1: %v", c)
	}
}

func TestOverlapRatio(t *testing.T) {
	disjoint := coverage.MustUniverse(10, []coverage.List{{0, 1}, {2, 3}})
	if got := OverlapRatio(disjoint, 2); got != 0 {
		t.Errorf("disjoint overlap = %v, want 0", got)
	}
	identical := coverage.MustUniverse(10, []coverage.List{{0, 1}, {0, 1}})
	if got := OverlapRatio(identical, 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("identical overlap = %v, want 0.5", got)
	}
	if got := OverlapRatio(identical, 0); got != 0 {
		t.Errorf("k=0 overlap = %v, want 0", got)
	}
	if got := OverlapRatio(identical, 100); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("k beyond size should clamp: %v", got)
	}
	empty := coverage.MustUniverse(5, []coverage.List{{}, {}})
	if got := OverlapRatio(empty, 2); got != 0 {
		t.Errorf("zero-coverage overlap = %v, want 0", got)
	}
}
