// Package billboard models the host's inventory: billboard locations, the
// influence-proportional cost model of §7.1.2, digital billboards as
// time-sliced virtual billboards (§3.2 Discussion), and a CSV codec.
package billboard

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/geo"
	"repro/internal/rng"
)

// Kind distinguishes physical from digital (time-sliced) billboards.
type Kind uint8

const (
	// Static is a conventional billboard showing one ad at a time.
	Static Kind = iota
	// DigitalSlot is one time slot of a digital billboard. The paper
	// treats a digital billboard as "multiple billboards", one per slot;
	// slots of the same panel share a location and a PanelID.
	DigitalSlot
)

func (k Kind) String() string {
	switch k {
	case Static:
		return "static"
	case DigitalSlot:
		return "digital-slot"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Billboard is one unit the host can assign to an advertiser.
type Billboard struct {
	ID   int32
	Loc  geo.Point
	Kind Kind
	// PanelID groups DigitalSlot billboards belonging to one physical
	// digital panel; -1 for static billboards.
	PanelID int32
	// Slot is the time-slot index within the panel for DigitalSlot
	// billboards; 0 for static billboards.
	Slot int16
	// Cost is the leasing cost w = ⌊τ·I(o)/10⌋ with τ ∈ [0.9, 1.1]
	// (§7.1.2). The regret objective is cost-free (§3.2 Discussion); the
	// cost is carried for reporting and for host-side accounting.
	Cost int64
}

// DB is an immutable collection of billboards addressed by dense IDs
// 0..Len()-1.
type DB struct {
	billboards []Billboard
}

// NewDB assigns dense IDs in slice order and returns the database.
func NewDB(bs []Billboard) *DB {
	for i := range bs {
		bs[i].ID = int32(i)
		if bs[i].Kind == Static {
			bs[i].PanelID = -1
			bs[i].Slot = 0
		}
	}
	return &DB{billboards: bs}
}

// Len returns the number of billboards.
func (db *DB) Len() int { return len(db.billboards) }

// At returns the billboard with the given ID.
func (db *DB) At(id int) *Billboard { return &db.billboards[id] }

// Locations returns the location of every billboard, indexed by ID.
func (db *DB) Locations() []geo.Point {
	pts := make([]geo.Point, len(db.billboards))
	for i := range db.billboards {
		pts[i] = db.billboards[i].Loc
	}
	return pts
}

// AssignCosts sets each billboard's cost from its influence using the
// paper's model w = ⌊τ·I(o)/10⌋, τ uniform in [0.9, 1.1]. influences[i] must
// be I({o_i}) for billboard i.
func (db *DB) AssignCosts(influences []int, r *rng.RNG) error {
	if len(influences) != len(db.billboards) {
		return fmt.Errorf("billboard: %d influences for %d billboards", len(influences), len(db.billboards))
	}
	for i := range db.billboards {
		tau := r.Range(0.9, 1.1)
		db.billboards[i].Cost = int64(tau * float64(influences[i]) / 10)
	}
	return nil
}

// ExpandDigital returns a new DB in which each listed panel (an index into
// db) is replaced by `slots` DigitalSlot billboards at the same location.
// Billboards not listed are copied through as-is. This implements the
// paper's treatment of digital billboards as multiple billboards, one per
// time slot; the influence model later scales a slot's coverage by its share
// of the day.
func (db *DB) ExpandDigital(panels []int, slots int) (*DB, error) {
	if slots < 1 {
		return nil, fmt.Errorf("billboard: slots %d < 1", slots)
	}
	isPanel := make(map[int]bool, len(panels))
	for _, p := range panels {
		if p < 0 || p >= db.Len() {
			return nil, fmt.Errorf("billboard: panel index %d out of range", p)
		}
		isPanel[p] = true
	}
	out := make([]Billboard, 0, db.Len()+len(panels)*(slots-1))
	for i := range db.billboards {
		b := db.billboards[i]
		if !isPanel[i] {
			out = append(out, b)
			continue
		}
		for s := 0; s < slots; s++ {
			slot := b
			slot.Kind = DigitalSlot
			slot.PanelID = int32(i)
			slot.Slot = int16(s)
			out = append(out, slot)
		}
	}
	return NewDB(out), nil
}

var csvHeader = []string{"id", "x", "y", "kind", "panel_id", "slot", "cost"}

// WriteCSV serializes the database to w.
func WriteCSV(w io.Writer, db *DB) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("billboard: write header: %w", err)
	}
	row := make([]string, len(csvHeader))
	for i := range db.billboards {
		b := &db.billboards[i]
		row[0] = strconv.Itoa(int(b.ID))
		row[1] = strconv.FormatFloat(b.Loc.X, 'f', 2, 64)
		row[2] = strconv.FormatFloat(b.Loc.Y, 'f', 2, 64)
		row[3] = strconv.Itoa(int(b.Kind))
		row[4] = strconv.Itoa(int(b.PanelID))
		row[5] = strconv.Itoa(int(b.Slot))
		row[6] = strconv.FormatInt(b.Cost, 10)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("billboard: write row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses a database written by WriteCSV.
func ReadCSV(r io.Reader) (*DB, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("billboard: read header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return nil, fmt.Errorf("billboard: header has %d columns, want %d", len(header), len(csvHeader))
	}
	for i, h := range csvHeader {
		if header[i] != h {
			return nil, fmt.Errorf("billboard: header column %d is %q, want %q", i, header[i], h)
		}
	}
	var bs []Billboard
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("billboard: read: %w", err)
		}
		line++
		id, err := strconv.Atoi(rec[0])
		if err != nil || id != len(bs) {
			return nil, fmt.Errorf("billboard: line %d: bad or non-dense id %q", line, rec[0])
		}
		x, ok := parseFinite(rec[1])
		if !ok {
			return nil, fmt.Errorf("billboard: line %d: bad x %q (want a finite number)", line, rec[1])
		}
		y, ok := parseFinite(rec[2])
		if !ok {
			return nil, fmt.Errorf("billboard: line %d: bad y %q (want a finite number)", line, rec[2])
		}
		kind, err := strconv.Atoi(rec[3])
		if err != nil || kind > int(DigitalSlot) || kind < 0 {
			return nil, fmt.Errorf("billboard: line %d: bad kind %q", line, rec[3])
		}
		panel, err := strconv.ParseInt(rec[4], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("billboard: line %d: bad panel_id %q", line, rec[4])
		}
		slot, err := strconv.ParseInt(rec[5], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("billboard: line %d: bad slot %q", line, rec[5])
		}
		cost, err := strconv.ParseInt(rec[6], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("billboard: line %d: bad cost %q", line, rec[6])
		}
		bs = append(bs, Billboard{
			Loc:     geo.Point{X: x, Y: y},
			Kind:    Kind(kind),
			PanelID: int32(panel),
			Slot:    int16(slot),
			Cost:    cost,
		})
	}
	return NewDB(bs), nil
}

// parseFinite parses a coordinate column, rejecting NaN and ±Inf, which
// would otherwise load silently and never fall within λ of any trajectory.
func parseFinite(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
}
