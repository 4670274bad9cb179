package geo

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// indexGrid grids points with each point's index as its owner, so a
// position's owner names the input point it holds.
func indexGrid(points []Point, cell float64) *Grid {
	owners := make([]int32, len(points))
	for i := range owners {
		owners[i] = int32(i)
	}
	return NewGrid(points, owners, cell)
}

// bruteWithin is the O(n) reference for grid queries, under Within's own
// predicate r >= 0 && Dist2 <= r*r.
func bruteWithin(points []Point, q Point, r float64) map[int32]bool {
	out := map[int32]bool{}
	for i, p := range points {
		if r >= 0 && p.Dist2(q) <= r*r {
			out[int32(i)] = true
		}
	}
	return out
}

// checkWithin fails t unless g, built by indexGrid over points, answers the
// query exactly as bruteWithin does: ascending positions whose owners are
// the brute-force hits and whose stored points are the input points.
func checkWithin(t *testing.T, g *Grid, points []Point, q Point, r float64) {
	t.Helper()
	want := bruteWithin(points, q, r)
	got := g.Within(q, r, nil)
	if len(got) != len(want) {
		t.Fatalf("Within(%v, %v) returned %d positions, want %d", q, r, len(got), len(want))
	}
	for k, pos := range got {
		if k > 0 && pos <= got[k-1] {
			t.Fatalf("Within positions not ascending: %v", got)
		}
		id := g.Owner(pos)
		if !want[id] {
			t.Fatalf("Within returned point %d, not within %v of %v", id, r, q)
		}
		if p := g.points[pos]; p != points[id] {
			t.Fatalf("position %d holds %v, owner %d is %v", pos, p, id, points[id])
		}
	}
}

// checkCellBound fails t if g has more cells than its points allow.
func checkCellBound(t *testing.T, g *Grid) {
	t.Helper()
	if cells := g.cols * g.rows; cells > 4*g.Len()+64 {
		t.Fatalf("%d cells for %d points", cells, g.Len())
	}
}

func TestGridMatchesBruteForce(t *testing.T) {
	r := rng.New(77)
	points := make([]Point, 2000)
	for i := range points {
		points[i] = Point{r.Range(0, 5000), r.Range(0, 3000)}
	}
	for _, cell := range []float64{25, 100, 400, 1000} {
		g := indexGrid(points, cell)
		for trial := 0; trial < 50; trial++ {
			q := Point{r.Range(-200, 5200), r.Range(-200, 3200)}
			checkWithin(t, g, points, q, r.Range(0, 600))
		}
	}
}

func TestGridEmptyAndDegenerate(t *testing.T) {
	g := indexGrid(nil, 100)
	if got := g.Within(Point{0, 0}, 50, nil); len(got) != 0 {
		t.Errorf("empty grid returned %d positions", len(got))
	}
	// All points identical: a single cell.
	pts := []Point{{1, 1}, {1, 1}, {1, 1}}
	g = indexGrid(pts, 10)
	if got := g.Within(Point{1, 1}, 0, nil); len(got) != 3 {
		t.Errorf("coincident points: got %d, want 3", len(got))
	}
	if got := g.Within(Point{5, 5}, 1, nil); len(got) != 0 {
		t.Errorf("far query: got %d, want 0", len(got))
	}
}

func TestGridNegativeRadius(t *testing.T) {
	g := indexGrid([]Point{{0, 0}}, 10)
	if got := g.Within(Point{0, 0}, -1, nil); len(got) != 0 {
		t.Errorf("negative radius returned %d positions", len(got))
	}
}

func TestGridBoundaryInclusive(t *testing.T) {
	g := indexGrid([]Point{{0, 0}, {100, 0}}, 50)
	got := g.Within(Point{50, 0}, 50, nil)
	if len(got) != 2 {
		t.Errorf("boundary radius: got %d hits, want 2 (inclusive)", len(got))
	}
}

func TestGridPanicsOnBadCellSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGrid(cellSize=0) did not panic")
		}
	}()
	indexGrid([]Point{{0, 0}}, 0)
}

func TestGridDstReuse(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {2, 0}}
	g := indexGrid(pts, 1)
	buf := make([]int32, 1, 8)
	got := g.Within(Point{0, 0}, 1.5, buf)
	if len(got) != 3 || got[0] != 0 {
		t.Fatalf("got %v, want the kept prefix and 2 positions", got)
	}
}

// TestGridWideInputs pins the cell-count bound on inputs whose bounding box
// dwarfs the cell size: two points 1e9 m apart used to size a 1e14-cell
// grid at 100 m cells and panic in makeslice.
func TestGridWideInputs(t *testing.T) {
	for _, pts := range [][]Point{
		{{0, 0}, {1e9, 1e9}},
		{{0, 0}, {1e9, 0}, {5e8, 0}},
		{{-1e300, -1e300}, {1e300, 1e300}, {0, 0}},
		{{-1.5e308, 0}, {1.5e308, 0}},
	} {
		g := indexGrid(pts, 100)
		checkCellBound(t, g)
		for _, q := range pts {
			checkWithin(t, g, pts, q, 100)
		}
		checkWithin(t, g, pts, Point{0, 0}, 1e9)
	}
}

// TestGridRefill checks that a grid reused across fills of different sizes
// and extents answers for the latest fill only.
func TestGridRefill(t *testing.T) {
	r := rng.New(5)
	var g Grid
	for _, n := range []int{500, 20, 0, 2000, 1} {
		span := r.Range(10, 10000)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{r.Range(0, span), r.Range(0, span)}
		}
		g.Reset(BoundingRect(pts), n, 50)
		for _, p := range pts {
			g.Count(p)
		}
		for i, p := range pts {
			g.Place(p, int32(i))
		}
		for trial := 0; trial < 20; trial++ {
			checkWithin(t, &g, pts, Point{r.Range(0, span), r.Range(0, span)}, r.Range(0, 200))
		}
	}
}

// FuzzGridWithin checks Within against brute force on fuzzed point sets:
// uniform, collinear (a zero-height box), coincident, and a cluster with one
// far outlier, over spans from a millimetre to 1e15 m and cell sizes from a
// millimetre to 1e15 m.
func FuzzGridWithin(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint8(0), 3.0, 2.0, 0.05, 0.5, 0.5)
	f.Add(uint64(2), uint16(50), uint8(1), 4.0, 2.0, 0.01, 0.3, 0.0)
	f.Add(uint64(3), uint16(30), uint8(2), 0.0, 2.0, 0.0, 0.0, 0.0)
	f.Add(uint64(4), uint16(100), uint8(3), 9.0, 2.0, 1e-7, 0.0, 0.0)
	f.Add(uint64(5), uint16(300), uint8(0), 15.0, -3.0, 0.2, 1.5, -0.5)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, shape uint8, logSpan, logCell, radius, qx, qy float64) {
		for _, v := range []float64{logSpan, logCell, radius, qx, qy} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		span := math.Pow(10, min(max(logSpan, -3), 15))
		cell := math.Pow(10, min(max(logCell, -3), 15))
		r := rng.New(seed)
		pts := make([]Point, int(n%1024))
		for i := range pts {
			switch shape % 4 {
			case 0:
				pts[i] = Point{r.Range(0, span), r.Range(0, span)}
			case 1:
				pts[i] = Point{r.Range(0, span), 7}
			case 2:
				pts[i] = Point{span, -span}
			case 3:
				pts[i] = Point{r.Range(0, 100), r.Range(0, 100)}
				if i == 0 {
					pts[i] = Point{span, span}
				}
			}
		}
		g := indexGrid(pts, cell)
		checkCellBound(t, g)
		rad := min(max(radius, -1), 2) * span
		q := Point{min(max(qx, -2), 3) * span, min(max(qy, -2), 3) * span}
		checkWithin(t, g, pts, q, rad)
		if len(pts) > 0 {
			checkWithin(t, g, pts, pts[r.Intn(len(pts))], rad)
		}
	})
}

func BenchmarkGridBuild(b *testing.B) {
	r := rng.New(1)
	points := make([]Point, 100000)
	owners := make([]int32, len(points))
	for i := range points {
		points[i] = Point{r.Range(0, 20000), r.Range(0, 20000)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewGrid(points, owners, 100)
	}
}

func BenchmarkGridWithin(b *testing.B) {
	r := rng.New(1)
	points := make([]Point, 100000)
	for i := range points {
		points[i] = Point{r.Range(0, 20000), r.Range(0, 20000)}
	}
	g := indexGrid(points, 100)
	buf := make([]int32, 0, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := Point{r.Range(0, 20000), r.Range(0, 20000)}
		buf = g.Within(q, 100, buf[:0])
	}
}
