package trajectory

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
)

func twoPointTraj(x0, y0, x1, y1, dt float64) Trajectory {
	return Trajectory{
		Points:  []geo.Point{{X: x0, Y: y0}, {X: x1, Y: y1}},
		Start:   time.Unix(0, 0).UTC(),
		Offsets: []float64{0, dt},
	}
}

func TestValidate(t *testing.T) {
	good := twoPointTraj(0, 0, 1, 1, 10)
	if err := good.Validate(); err != nil {
		t.Errorf("valid trajectory rejected: %v", err)
	}
	empty := Trajectory{}
	if err := empty.Validate(); err == nil {
		t.Error("empty trajectory accepted")
	}
	badLen := Trajectory{Points: []geo.Point{{}}, Offsets: []float64{0, 1}}
	if err := badLen.Validate(); err == nil {
		t.Error("offset/point length mismatch accepted")
	}
	decreasing := Trajectory{
		Points:  []geo.Point{{}, {}, {}},
		Offsets: []float64{0, 5, 3},
	}
	if err := decreasing.Validate(); err == nil {
		t.Error("decreasing offsets accepted")
	}
	noOffsets := Trajectory{Points: []geo.Point{{}}}
	if err := noOffsets.Validate(); err != nil {
		t.Errorf("nil offsets rejected: %v", err)
	}
}

func TestDistanceAndTravelTime(t *testing.T) {
	tr := twoPointTraj(0, 0, 3, 4, 60)
	if d := tr.Distance(); math.Abs(d-5) > 1e-12 {
		t.Errorf("Distance = %v, want 5", d)
	}
	if tt := tr.TravelTime(); tt != 60 {
		t.Errorf("TravelTime = %v, want 60", tt)
	}
	single := Trajectory{Points: []geo.Point{{}}, Offsets: []float64{7}}
	if single.TravelTime() != 0 {
		t.Error("single-point travel time should be 0")
	}
	if (&Trajectory{Points: []geo.Point{{}, {}}}).TravelTime() != 0 {
		t.Error("nil offsets travel time should be 0")
	}
}

func TestNewDBAssignsIDs(t *testing.T) {
	db, err := NewDB([]Trajectory{
		twoPointTraj(0, 0, 1, 0, 5),
		twoPointTraj(0, 0, 0, 2, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2 {
		t.Fatalf("Len = %d", db.Len())
	}
	if db.At(0).ID != 0 || db.At(1).ID != 1 {
		t.Error("dense IDs not assigned")
	}
}

func TestNewDBRejectsInvalid(t *testing.T) {
	if _, err := NewDB([]Trajectory{{}}); err == nil {
		t.Error("invalid trajectory accepted by NewDB")
	}
}

func TestComputeStats(t *testing.T) {
	db, err := NewDB([]Trajectory{
		twoPointTraj(0, 0, 3, 4, 10), // dist 5, time 10
		twoPointTraj(0, 0, 0, 1, 30), // dist 1, time 30
	})
	if err != nil {
		t.Fatal(err)
	}
	s := db.ComputeStats()
	if s.Count != 2 || s.TotalPoints != 4 {
		t.Errorf("Count/TotalPoints = %d/%d", s.Count, s.TotalPoints)
	}
	if math.Abs(s.AvgDistanceM-3) > 1e-12 {
		t.Errorf("AvgDistanceM = %v, want 3", s.AvgDistanceM)
	}
	if math.Abs(s.AvgTravelTime-20) > 1e-12 {
		t.Errorf("AvgTravelTime = %v, want 20", s.AvgTravelTime)
	}
	empty, _ := NewDB(nil)
	if s := empty.ComputeStats(); s.Count != 0 || s.AvgDistanceM != 0 {
		t.Error("empty db stats should be zero")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db, err := NewDB([]Trajectory{
		twoPointTraj(1.25, 2.5, 100, 200.75, 90),
		{Points: []geo.Point{{X: 5, Y: 6}, {X: 7, Y: 8}, {X: 9, Y: 10}}, Offsets: []float64{0, 30, 61.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != db.Len() {
		t.Fatalf("round trip Len = %d, want %d", got.Len(), db.Len())
	}
	for id := 0; id < db.Len(); id++ {
		a, b := db.At(id), got.At(id)
		if len(a.Points) != len(b.Points) {
			t.Fatalf("trajectory %d: %d points, want %d", id, len(b.Points), len(a.Points))
		}
		for i := range a.Points {
			if math.Abs(a.Points[i].X-b.Points[i].X) > 0.01 ||
				math.Abs(a.Points[i].Y-b.Points[i].Y) > 0.01 {
				t.Errorf("trajectory %d point %d: got %v, want %v", id, i, b.Points[i], a.Points[i])
			}
			if math.Abs(a.Offsets[i]-b.Offsets[i]) > 0.1 {
				t.Errorf("trajectory %d offset %d: got %v, want %v", id, i, b.Offsets[i], a.Offsets[i])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad header":     "a,b,c,d,e\n",
		"short header":   "traj_id,seq\n",
		"bad id":         "traj_id,seq,x,y,offset_seconds\nxx,0,1,2,0\n",
		"bad seq":        "traj_id,seq,x,y,offset_seconds\n0,xx,1,2,0\n",
		"bad x":          "traj_id,seq,x,y,offset_seconds\n0,0,xx,2,0\n",
		"bad y":          "traj_id,seq,x,y,offset_seconds\n0,0,1,xx,0\n",
		"bad offset":     "traj_id,seq,x,y,offset_seconds\n0,0,1,2,xx\n",
		"gap in ids":     "traj_id,seq,x,y,offset_seconds\n0,0,1,2,0\n2,0,1,2,0\n",
		"seq not zero":   "traj_id,seq,x,y,offset_seconds\n0,1,1,2,0\n",
		"seq skips":      "traj_id,seq,x,y,offset_seconds\n0,0,1,2,0\n0,2,1,2,0\n",
		"id goes back":   "traj_id,seq,x,y,offset_seconds\n0,0,1,2,0\n1,0,1,2,0\n0,1,1,2,5\n",
		"offsets shrink": "traj_id,seq,x,y,offset_seconds\n0,0,1,2,9\n0,1,1,2,3\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadCSV accepted invalid input", name)
		}
	}
}

// TestReadCSVRejectsNonFinite: strconv.ParseFloat accepts NaN and ±Inf,
// which would otherwise reach geo.NewGrid and the λ-distance tests. Each bad
// value sits on the second data row, so the error must name line 3.
func TestReadCSVRejectsNonFinite(t *testing.T) {
	const head = "traj_id,seq,x,y,offset_seconds\n0,0,1,2,0\n"
	cases := map[string]string{
		"x +Inf":     head + "0,1,+Inf,2,5\n",
		"x NaN":      head + "0,1,NaN,2,5\n",
		"y -Inf":     head + "0,1,1,-Inf,5\n",
		"y nan":      head + "0,1,1,nan,5\n",
		"offset Inf": head + "0,1,1,2,Inf\n",
		"offset NaN": head + "0,1,1,2,NaN\n",
		"new traj x": head + "1,0,infinity,2,0\n",
		"overflow y": head + "0,1,1,1e400,5\n",
	}
	for name, in := range cases {
		_, err := ReadCSV(strings.NewReader(in))
		if err == nil {
			t.Errorf("%s: ReadCSV accepted a non-finite value", name)
			continue
		}
		if !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%s: error %q does not name line 3", name, err)
		}
	}
}

func TestWriteCSVNilOffsets(t *testing.T) {
	db, err := NewDB([]Trajectory{{Points: []geo.Point{{X: 1, Y: 2}}}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0).Offsets[0] != 0 {
		t.Error("nil offsets should serialize as 0")
	}
}
