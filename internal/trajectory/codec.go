package trajectory

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"repro/internal/geo"
)

// The CSV layout is one row per trajectory point:
//
//	traj_id,seq,x,y,offset_seconds
//
// Rows for a trajectory must be contiguous and seq-ordered; trajectory IDs
// must be dense and ascending. A header row is written and expected. Start
// times are serialized as a per-trajectory offset origin only (the influence
// model is time-free); all trajectories share the epoch origin on reload.

var csvHeader = []string{"traj_id", "seq", "x", "y", "offset_seconds"}

// WriteCSV serializes the database to w in the point-per-row CSV layout.
func WriteCSV(w io.Writer, db *DB) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trajectory: write header: %w", err)
	}
	row := make([]string, 5)
	for id := 0; id < db.Len(); id++ {
		t := db.At(id)
		for i, p := range t.Points {
			row[0] = strconv.Itoa(id)
			row[1] = strconv.Itoa(i)
			row[2] = strconv.FormatFloat(p.X, 'f', 2, 64)
			row[3] = strconv.FormatFloat(p.Y, 'f', 2, 64)
			off := 0.0
			if t.Offsets != nil {
				off = t.Offsets[i]
			}
			row[4] = strconv.FormatFloat(off, 'f', 1, 64)
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("trajectory: write row: %w", err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses a database from the point-per-row CSV layout produced by
// WriteCSV.
func ReadCSV(r io.Reader) (*DB, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trajectory: read header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return nil, fmt.Errorf("trajectory: header has %d columns, want %d", len(header), len(csvHeader))
	}
	for i, h := range csvHeader {
		if header[i] != h {
			return nil, fmt.Errorf("trajectory: header column %d is %q, want %q", i, header[i], h)
		}
	}

	var ts []Trajectory
	cur := -1
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trajectory: read: %w", err)
		}
		line++
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("trajectory: line %d: bad traj_id %q", line, rec[0])
		}
		seq, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("trajectory: line %d: bad seq %q", line, rec[1])
		}
		x, ok := parseFinite(rec[2])
		if !ok {
			return nil, fmt.Errorf("trajectory: line %d: bad x %q (want a finite number)", line, rec[2])
		}
		y, ok := parseFinite(rec[3])
		if !ok {
			return nil, fmt.Errorf("trajectory: line %d: bad y %q (want a finite number)", line, rec[3])
		}
		off, ok := parseFinite(rec[4])
		if !ok {
			return nil, fmt.Errorf("trajectory: line %d: bad offset %q (want a finite number)", line, rec[4])
		}

		switch {
		case id == cur+1 && seq == 0:
			cur = id
			ts = append(ts, Trajectory{ID: int32(id), Start: time.Unix(0, 0).UTC()})
		case id == cur:
			if seq != len(ts[cur].Points) {
				return nil, fmt.Errorf("trajectory: line %d: trajectory %d seq %d out of order", line, id, seq)
			}
		default:
			return nil, fmt.Errorf("trajectory: line %d: trajectory id %d not dense/contiguous (current %d)", line, id, cur)
		}
		t := &ts[cur]
		t.Points = append(t.Points, geo.Point{X: x, Y: y})
		t.Offsets = append(t.Offsets, off)
	}
	return NewDB(ts)
}

// parseFinite parses a float column, rejecting NaN and ±Inf: every
// coordinate and offset feeds grid bucketing and distance tests, which a
// non-finite value would corrupt.
func parseFinite(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
}
