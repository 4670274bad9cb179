package catalog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geo"
)

// DefaultZoneMeters is the zone grid cell size assumed when a zonal model
// spec leaves zone_meters unset: ~1km square zones, the granularity at
// which the cited zonal-constraint work partitions a city.
const DefaultZoneMeters = 1000

// ModelSpec is the "model" block of a Spec: which regret model the built
// instance carries and the variant's parameters. The zero value (and an
// absent block) selects the base MROAM model.
//
//	{"kind": "base"}
//	{"kind": "zonal", "zone_cap": 40}
//	{"kind": "zonal", "zone_cap": 40, "zone_meters": 500}
type ModelSpec struct {
	// Kind names the model: "base" (default) or "zonal". Wire names are
	// shared with the solve-cache key and the mroamd_requests_total model
	// label.
	Kind string `json:"kind,omitempty"`
	// ZoneCap is the zonal model's uniform per-zone cap on one
	// advertiser's counted influence supply. Required (≥ 1) for "zonal";
	// must be unset for "base".
	ZoneCap int64 `json:"zone_cap,omitempty"`
	// ZoneMeters is the zone grid cell size in meters; zero selects
	// DefaultZoneMeters. Only meaningful for "zonal".
	ZoneMeters float64 `json:"zone_meters,omitempty"`
}

// UnmarshalJSON decodes the block rejecting unknown fields. The top-level
// spec decoders (ReadSpecs, the PUT /instances handler) already use
// DisallowUnknownFields, but a json.Decoder's strictness does not descend
// into types with custom unmarshallers — and a typo like "zone_caps" inside
// the nested block must fail loudly on every decode path, not silently
// build an unconstrained instance.
func (m *ModelSpec) UnmarshalJSON(b []byte) error {
	type plain ModelSpec // drops the method set; no recursion
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var p plain
	if err := dec.Decode(&p); err != nil {
		return fmt.Errorf("model block: %w", err)
	}
	*m = ModelSpec(p)
	return nil
}

// ModelKind returns the model kind the spec selects, normalizing the
// absent/empty cases to the base model's wire name.
func (s Spec) ModelKind() string {
	if s.Model == nil || s.Model.Kind == "" {
		return core.ModelBase
	}
	return s.Model.Kind
}

// normalizedModel fills the model block's defaults, copying the block so
// Normalized never aliases its receiver's pointer.
func (s Spec) normalizedModel() *ModelSpec {
	if s.Model == nil {
		return nil
	}
	m := *s.Model
	if m.Kind == "" {
		m.Kind = core.ModelBase
	}
	if m.Kind == core.ModelZonal && m.ZoneMeters == 0 {
		m.ZoneMeters = DefaultZoneMeters
	}
	return &m
}

// validateModel checks a (normalized) model block.
func validateModel(m *ModelSpec) error {
	if m == nil {
		return nil
	}
	switch m.Kind {
	case core.ModelBase:
		if m.ZoneCap != 0 || m.ZoneMeters != 0 {
			return fmt.Errorf("catalog: model %q takes no zone parameters (zone_cap %d, zone_meters %v)",
				m.Kind, m.ZoneCap, m.ZoneMeters)
		}
	case core.ModelZonal:
		if m.ZoneCap < 1 {
			return fmt.Errorf("catalog: zonal model requires zone_cap >= 1, got %d", m.ZoneCap)
		}
		if err := finite("zone_meters", m.ZoneMeters); err != nil {
			return err
		}
		if m.ZoneMeters <= 0 {
			return fmt.Errorf("catalog: zonal zone_meters %v must be positive", m.ZoneMeters)
		}
	default:
		return fmt.Errorf("catalog: unknown model kind %q (want %q or %q)",
			m.Kind, core.ModelBase, core.ModelZonal)
	}
	return nil
}

// ZonePartition assigns each billboard to a zone: uniform square cells of
// cellMeters over the billboards' bounding rectangle (the same cell math as
// geo.Grid), re-indexed densely in billboard-ID order so zone IDs are
// contiguous and deterministic. It returns the partition and the number of
// occupied zones. Build uses it to construct zonal instances; it is exported
// for callers (mroam sim) that build universes outside the catalog pipeline
// but want the same zone geometry.
func ZonePartition(pts []geo.Point, cellMeters float64) (zoneOf []int, zones int) {
	zoneOf = make([]int, len(pts))
	if len(pts) == 0 {
		return zoneOf, 0
	}
	bounds := geo.BoundingRect(pts)
	cols := int(math.Floor(bounds.Width()/cellMeters)) + 1
	rows := int(math.Floor(bounds.Height()/cellMeters)) + 1
	cellZone := make(map[int]int)
	for i, p := range pts {
		cx := int((p.X - bounds.Min.X) / cellMeters)
		cy := int((p.Y - bounds.Min.Y) / cellMeters)
		if cx < 0 {
			cx = 0
		} else if cx >= cols {
			cx = cols - 1
		}
		if cy < 0 {
			cy = 0
		} else if cy >= rows {
			cy = rows - 1
		}
		cell := cy*cols + cx
		z, ok := cellZone[cell]
		if !ok {
			z = len(cellZone)
			cellZone[cell] = z
		}
		zoneOf[i] = z
	}
	return zoneOf, len(cellZone)
}
