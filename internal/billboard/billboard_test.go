package billboard

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
)

func sampleDB() *DB {
	return NewDB([]Billboard{
		{Loc: geo.Point{X: 10, Y: 20}},
		{Loc: geo.Point{X: 30, Y: 40}},
		{Loc: geo.Point{X: 50, Y: 60}},
	})
}

func TestNewDBAssignsDenseIDs(t *testing.T) {
	db := sampleDB()
	if db.Len() != 3 {
		t.Fatalf("Len = %d", db.Len())
	}
	for i := 0; i < db.Len(); i++ {
		b := db.At(i)
		if int(b.ID) != i {
			t.Errorf("billboard %d has ID %d", i, b.ID)
		}
		if b.Kind != Static || b.PanelID != -1 || b.Slot != 0 {
			t.Errorf("static billboard %d has digital fields: %+v", i, b)
		}
	}
}

func TestLocations(t *testing.T) {
	db := sampleDB()
	locs := db.Locations()
	if len(locs) != 3 || locs[1] != (geo.Point{X: 30, Y: 40}) {
		t.Errorf("Locations = %v", locs)
	}
}

func TestAssignCosts(t *testing.T) {
	db := sampleDB()
	influences := []int{100, 200, 0}
	if err := db.AssignCosts(influences, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	// w = floor(tau * I/10), tau in [0.9, 1.1).
	if c := db.At(0).Cost; c < 9 || c > 11 {
		t.Errorf("cost[0] = %d, want in [9, 11]", c)
	}
	if c := db.At(1).Cost; c < 18 || c > 22 {
		t.Errorf("cost[1] = %d, want in [18, 22]", c)
	}
	if c := db.At(2).Cost; c != 0 {
		t.Errorf("cost[2] = %d, want 0", c)
	}
	if err := db.AssignCosts([]int{1}, rng.New(1)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestAssignCostsDeterministic(t *testing.T) {
	a, b := sampleDB(), sampleDB()
	infl := []int{1000, 2000, 3000}
	if err := a.AssignCosts(infl, rng.New(42)); err != nil {
		t.Fatal(err)
	}
	if err := b.AssignCosts(infl, rng.New(42)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i).Cost != b.At(i).Cost {
			t.Fatalf("same seed gave different costs at %d", i)
		}
	}
}

func TestExpandDigital(t *testing.T) {
	db := sampleDB()
	out, err := db.ExpandDigital([]int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 6 { // 2 static + 4 slots
		t.Fatalf("expanded Len = %d, want 6", out.Len())
	}
	slots := 0
	for i := 0; i < out.Len(); i++ {
		b := out.At(i)
		if b.Kind == DigitalSlot {
			slots++
			if b.PanelID != 1 {
				t.Errorf("slot has PanelID %d, want 1", b.PanelID)
			}
			if b.Loc != (geo.Point{X: 30, Y: 40}) {
				t.Errorf("slot moved: %v", b.Loc)
			}
		}
	}
	if slots != 4 {
		t.Errorf("%d slots, want 4", slots)
	}
	if _, err := db.ExpandDigital([]int{0}, 0); err == nil {
		t.Error("slots=0 accepted")
	}
	if _, err := db.ExpandDigital([]int{99}, 2); err == nil {
		t.Error("out-of-range panel accepted")
	}
}

func TestKindString(t *testing.T) {
	if Static.String() != "static" || DigitalSlot.String() != "digital-slot" {
		t.Error("Kind.String wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown Kind.String should include the value")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := sampleDB()
	if err := db.AssignCosts([]int{100, 200, 300}, rng.New(7)); err != nil {
		t.Fatal(err)
	}
	expanded, err := db.ExpandDigital([]int{2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, expanded); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != expanded.Len() {
		t.Fatalf("round trip Len = %d, want %d", got.Len(), expanded.Len())
	}
	for i := 0; i < expanded.Len(); i++ {
		a, b := expanded.At(i), got.At(i)
		if a.Kind != b.Kind || a.PanelID != b.PanelID || a.Slot != b.Slot || a.Cost != b.Cost {
			t.Errorf("billboard %d: got %+v, want %+v", i, b, a)
		}
		if a.Loc.Dist(b.Loc) > 0.01 {
			t.Errorf("billboard %d location drifted: %v vs %v", i, b.Loc, a.Loc)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "a,b,c,d,e,f,g\n",
		"wrong cols":   "id,x\n",
		"bad id":       "id,x,y,kind,panel_id,slot,cost\nxx,1,2,0,-1,0,5\n",
		"non-dense id": "id,x,y,kind,panel_id,slot,cost\n1,1,2,0,-1,0,5\n",
		"bad x":        "id,x,y,kind,panel_id,slot,cost\n0,xx,2,0,-1,0,5\n",
		"bad y":        "id,x,y,kind,panel_id,slot,cost\n0,1,xx,0,-1,0,5\n",
		"bad kind":     "id,x,y,kind,panel_id,slot,cost\n0,1,2,9,-1,0,5\n",
		"bad panel":    "id,x,y,kind,panel_id,slot,cost\n0,1,2,0,xx,0,5\n",
		"bad slot":     "id,x,y,kind,panel_id,slot,cost\n0,1,2,0,-1,xx,5\n",
		"bad cost":     "id,x,y,kind,panel_id,slot,cost\n0,1,2,0,-1,0,xx\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadCSV accepted invalid input", name)
		}
	}
}

// TestReadCSVRejectsNonFiniteAndOverflow: NaN and ±Inf coordinates parse
// with strconv.ParseFloat and would load as billboards no trajectory can
// reach; panel_id and slot values beyond int32/int16 would be truncated.
// Each bad value sits on the second data row, so the error must name line 3.
func TestReadCSVRejectsNonFiniteAndOverflow(t *testing.T) {
	const head = "id,x,y,kind,panel_id,slot,cost\n0,1,2,0,-1,0,5\n"
	cases := map[string]string{
		"x NaN":           head + "1,NaN,2,0,-1,0,5\n",
		"x +Inf":          head + "1,+Inf,2,0,-1,0,5\n",
		"y -Inf":          head + "1,1,-Inf,0,-1,0,5\n",
		"y infinity":      head + "1,1,infinity,0,-1,0,5\n",
		"panel > int32":   head + "1,1,2,1,2147483648,0,5\n",
		"panel < int32":   head + "1,1,2,1,-2147483649,0,5\n",
		"slot > int16":    head + "1,1,2,1,0,32768,5\n",
		"slot wraps to 0": head + "1,1,2,1,0,65536,5\n",
	}
	for name, in := range cases {
		_, err := ReadCSV(strings.NewReader(in))
		if err == nil {
			t.Errorf("%s: ReadCSV accepted invalid input", name)
			continue
		}
		if !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%s: error %q does not name line 3", name, err)
		}
	}
}
