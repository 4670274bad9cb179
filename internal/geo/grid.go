package geo

import (
	"fmt"
	"math"
)

// Grid is a uniform grid spatial index over a fixed set of points, each
// carrying an owner (in the influence model, the trajectory it belongs to).
// It answers radius queries ("which points lie within λ meters of q?") by
// scanning only the cells overlapping the query disk.
//
// The points and their owners are stored in cell order: a counting sort
// scatters them once, row-major by cell, so the cells minCX..maxCX of one
// row are a single contiguous run and a query reads memory sequentially.
// Inside a cell, points keep the order in which they were placed. With
// cell size close to the query radius a query touches at most three runs
// of three cells. Build cost is O(n), memory is O(n) — the cell count
// is kept O(n) by growing the cell size on sparse, wide inputs, which
// changes no query result.
//
// A Grid is filled in two passes over the same point sequence: Reset, then
// Count every point, then Place every point in the same order. NewGrid does
// this for a flat slice. A Grid reuses its buffers from one fill to the
// next.
type Grid struct {
	bounds   Rect
	cellSize float64
	cols     int
	rows     int
	// cellStart[c] .. cellStart[c+1] delimit cell c's run in points and
	// owners. While counting, cellStart[c+2] counts cell c; the last Count
	// turns the counts into prefix sums, and placing advances cellStart[c+1]
	// from the start of cell c to its end, which is the start of cell c+1.
	cellStart []int32
	cells     []int32 // the cell of each counted point, in counting order
	counted   int
	placed    int
	points    []Point
	owners    []int32
}

// NewGrid indexes the given points with the given cell size (meters);
// owners[i] is carried with points[i]. Both slices are copied into cell
// order. NewGrid panics if cellSize <= 0.
func NewGrid(points []Point, owners []int32, cellSize float64) *Grid {
	g := new(Grid)
	g.Reset(BoundingRect(points), len(points), cellSize)
	for _, p := range points {
		g.Count(p)
	}
	for i, p := range points {
		g.Place(p, owners[i])
	}
	return g
}

// Reset empties g and lays cells of cellSize meters (or larger, see Grid)
// over bounds, ready for n points. Points outside bounds go to the nearest
// boundary cell. Reset panics if cellSize <= 0.
func (g *Grid) Reset(bounds Rect, n int, cellSize float64) {
	if !(cellSize > 0) {
		panic(fmt.Sprintf("geo: grid cell size %v <= 0", cellSize))
	}
	g.bounds, g.counted, g.placed = bounds, 0, 0
	g.points, g.owners, g.cells = resize(g.points, n), resize(g.owners, n), resize(g.cells, n)
	g.cellSize, g.cols, g.rows = cellSize, 1, 1
	if n > 0 {
		g.shape(n)
	}
	g.cellStart = resize(g.cellStart, g.cols*g.rows+2)
	clear(g.cellStart)
}

// shape sizes the grid over its bounds, doubling the cell size until there
// are at most 4n+64 cells. A cell size that reaches +Inf (extents too wide
// for float64) leaves a single cell.
func (g *Grid) shape(n int) {
	maxCells := float64(4*n + 64)
	for {
		cols := max(math.Floor(g.bounds.Width()/g.cellSize)+1, 1)
		rows := max(math.Floor(g.bounds.Height()/g.cellSize)+1, 1)
		if cols*rows <= maxCells {
			g.cols, g.rows = int(cols), int(rows)
			return
		}
		if math.IsInf(g.cellSize, 1) {
			return
		}
		g.cellSize *= 2
	}
}

// resize returns s with length n, reusing its array when it is big enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Count records p in the first pass of a fill. The last of the n points
// announced to Reset lays the cells out for Place.
func (g *Grid) Count(p Point) {
	c := g.cellOf(p)
	g.cells[g.counted] = int32(c)
	g.counted++
	g.cellStart[c+2]++
	if g.counted == len(g.cells) {
		for c := 2; c < len(g.cellStart); c++ {
			g.cellStart[c] += g.cellStart[c-1]
		}
	}
}

// Place stores p and its owner in the second pass of a fill, which must
// visit the counted points in the order they were counted, and returns the
// position of p: the index Within reports for it.
func (g *Grid) Place(p Point, owner int32) int32 {
	c := g.cells[g.placed] + 1
	g.placed++
	pos := g.cellStart[c]
	g.cellStart[c] = pos + 1
	g.points[pos], g.owners[pos] = p, owner
	return pos
}

// cellOf returns the flat cell index containing p. Points on the far
// boundary land in the last row/column by construction of cols/rows.
func (g *Grid) cellOf(p Point) int {
	cx := clampCell((p.X-g.bounds.Min.X)/g.cellSize, g.cols)
	cy := clampCell((p.Y-g.bounds.Min.Y)/g.cellSize, g.rows)
	return cy*g.cols + cx
}

// clampCell returns the cell coordinate of v (a coordinate in cell units)
// clamped to [0, n); NaN maps to 0.
func clampCell(v float64, n int) int {
	if !(v >= 0) {
		return 0
	}
	if v >= float64(n) {
		return n - 1
	}
	return int(v)
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.points) }

// Owner returns the owner carried by the point at position i.
func (g *Grid) Owner(i int32) int32 { return g.owners[i] }

// Within appends to dst the positions of all points within radius r of q,
// in ascending order, and returns the extended slice. A point p is within r
// of q iff r >= 0 and p.Dist2(q) <= r*r. Pass dst = nil to allocate.
func (g *Grid) Within(q Point, r float64, dst []int32) []int32 {
	if len(g.points) == 0 || r < 0 {
		return dst
	}
	r2 := r * r
	minCX := clampCell(math.Floor((q.X-r-g.bounds.Min.X)/g.cellSize), g.cols)
	maxCX := clampCell(math.Floor((q.X+r-g.bounds.Min.X)/g.cellSize), g.cols)
	minCY := clampCell(math.Floor((q.Y-r-g.bounds.Min.Y)/g.cellSize), g.rows)
	maxCY := clampCell(math.Floor((q.Y+r-g.bounds.Min.Y)/g.cellSize), g.rows)
	for cy := minCY; cy <= maxCY; cy++ {
		row := cy * g.cols
		lo, hi := g.cellStart[row+minCX], g.cellStart[row+maxCX+1]
		for k, p := range g.points[lo:hi] {
			if p.Dist2(q) <= r2 {
				dst = append(dst, lo+int32(k))
			}
		}
	}
	return dst
}
