package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{1, 1}, Point{1, 2}, 1},
	}
	for _, tt := range tests {
		if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
		}
	}
}

func TestDistSymmetricAndNonNegative(t *testing.T) {
	check := func(ax, ay, bx, by float64) bool {
		p, q := Point{ax, ay}, Point{bx, by}
		d1, d2 := p.Dist(q), q.Dist(p)
		return d1 == d2 && d1 >= 0
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDist2ConsistentWithDist(t *testing.T) {
	check := func(ax, ay, bx, by int16) bool {
		p, q := Point{float64(ax), float64(ay)}, Point{float64(bx), float64(by)}
		d := p.Dist(q)
		return math.Abs(p.Dist2(q)-d*d) < 1e-6*(1+d*d)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLerp(t *testing.T) {
	p, q := Point{0, 0}, Point{10, 20}
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v, want %v", got, p)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v, want %v", got, q)
	}
	if got := p.Lerp(q, 0.5); got != (Point{5, 10}) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(Point{5, 1}, Point{0, 4})
	if r.Min != (Point{0, 1}) || r.Max != (Point{5, 4}) {
		t.Fatalf("NewRect normalized corners wrong: %+v", r)
	}
	if !r.Contains(Point{2, 2}) || !r.Contains(Point{0, 1}) || !r.Contains(Point{5, 4}) {
		t.Error("Contains should include interior and boundary")
	}
	if r.Contains(Point{-0.1, 2}) || r.Contains(Point{2, 4.1}) {
		t.Error("Contains should exclude exterior")
	}
	if r.Width() != 5 || r.Height() != 3 {
		t.Errorf("Width/Height = %v/%v", r.Width(), r.Height())
	}
	e := r.Expand(1)
	if e.Min != (Point{-1, 0}) || e.Max != (Point{6, 5}) {
		t.Errorf("Expand = %+v", e)
	}
	u := r.Union(NewRect(Point{-2, -2}, Point{1, 1}))
	if u.Min != (Point{-2, -2}) || u.Max != (Point{5, 4}) {
		t.Errorf("Union = %+v", u)
	}
}

func TestBoundingRect(t *testing.T) {
	empty := BoundingRect(nil)
	if empty.Max.X >= empty.Min.X {
		t.Error("empty bounding rect should be empty")
	}
	pts := []Point{{1, 5}, {-3, 2}, {4, -1}}
	r := BoundingRect(pts)
	if r.Min != (Point{-3, -1}) || r.Max != (Point{4, 5}) {
		t.Errorf("BoundingRect = %+v", r)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("bounding rect excludes its own point %v", p)
		}
	}
}

func TestPathLength(t *testing.T) {
	if got := PathLength(nil); got != 0 {
		t.Errorf("PathLength(nil) = %v", got)
	}
	if got := PathLength([]Point{{0, 0}}); got != 0 {
		t.Errorf("PathLength(single) = %v", got)
	}
	got := PathLength([]Point{{0, 0}, {3, 4}, {3, 10}})
	if math.Abs(got-11) > 1e-12 {
		t.Errorf("PathLength = %v, want 11", got)
	}
}
