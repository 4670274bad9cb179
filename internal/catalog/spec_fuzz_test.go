package catalog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzSpecSeeds returns the FuzzReadSpecs seed corpus: the repository's
// fleet files, zonal and base model blocks, and near-misses the decoder
// must reject (unknown top-level and nested fields, bad kinds, duplicate
// names, truncation).
func fuzzSpecSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, name := range []string{"catalog-demo.json", "variant-demo.json"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	fleet := seeds[1]
	return append(seeds,
		[]byte(`[{"name":"z","model":{"kind":"zonal","zone_cap":40}}]`),
		[]byte(`[{"name":"z","model":{"kind":"zonal","zone_cap":40,"zone_meters":500}}]`),
		[]byte(`[{"name":"b","model":{"kind":"base"}},{"name":"e","model":{}}]`),
		[]byte(`[{"name":"s","city":"SG","tier":"scale","scale":0.1,"seed":3,"gamma":0}]`),
		[]byte(`[{"name":"d","data":"some/dir","alpha":1.5,"p":0.2,"lambda":50}]`),
		// Unknown fields, top level and nested.
		[]byte(`[{"name":"u","colour":"red"}]`),
		[]byte(`[{"name":"u","model":{"kind":"zonal","zone_caps":40}}]`),
		[]byte(`[{"name":"u","model":{"kind":"zonal","zone_cap":40,"extra":{"deep":[1,2]}}}]`),
		// Invalid but well-formed fleets.
		[]byte(`[{"name":"b","model":{"kind":"base","zone_cap":5}}]`),
		[]byte(`[{"name":"q","model":{"kind":"quadratic"}}]`),
		[]byte(`[{"name":"x"},{"name":"x"}]`),
		[]byte(`[{"city":"NYC"}]`),
		[]byte(`[]`),
		[]byte(`{}`),
		bytes.Replace(fleet, []byte(`"zone_cap": 10`), []byte(`"zone_cap": -1`), 1),
		fleet[:len(fleet)/2],
	)
}

// FuzzReadSpecs asserts the fleet-file contract under arbitrary bytes:
// ReadSpecs never panics, every fleet it accepts validates, and every
// accepted fleet survives json.Marshal → ReadSpecs unchanged.
func FuzzReadSpecs(f *testing.F) {
	for _, seed := range fuzzSpecSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := ReadSpecs(bytes.NewReader(data))
		if err != nil {
			return // rejected input; only panics are bugs here
		}
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				t.Fatalf("ReadSpecs accepted spec %q that fails Validate: %v", s.Name, err)
			}
		}
		out, err := json.Marshal(specs)
		if err != nil {
			t.Fatalf("marshal accepted fleet: %v", err)
		}
		again, err := ReadSpecs(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-read marshalled fleet: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(again, specs) {
			t.Fatalf("round trip changed the fleet:\n got %+v\nwant %+v\n via %s", again, specs, out)
		}
	})
}

// validateSeed is one FuzzSpecValidate argument row.
type validateSeed struct {
	scale, alpha, p, gamma, lambda, zoneMeters float64
	zonal                                      bool
}

// fuzzValidateSeeds returns the FuzzSpecValidate seed corpus: the
// defaults, valid explicit knobs, and the NaN/±Inf values flag.Float64
// parses but JSON cannot carry, in every field.
func fuzzValidateSeeds() []validateSeed {
	nan, inf := math.NaN(), math.Inf(1)
	return []validateSeed{
		{0, 0, 0, 0, 0, 0, false},
		{0.25, 1, 0.05, 0.5, 100, 0, false},
		{0.02, 2, 0.1, 0, 50, 500, true},
		{0.01, 2, 0.1, 0.5, nan, 0, false},
		{0.01, nan, 0.1, 0.5, 100, 0, false},
		{0.01, 2, nan, 0.5, 100, 0, false},
		{0.01, 2, 0.1, nan, 100, 0, false},
		{0.01, 2, 0.1, inf, 100, 0, false},
		{0.01, 2, 0.1, 0.5, inf, 0, false},
		{inf, 2, 0.1, 0.5, 100, 0, false},
		{-inf, 2, 0.1, 0.5, 100, 0, false},
		{nan, 2, 0.1, 0.5, 100, 0, false},
		{0.01, -inf, 0.1, 0.5, 100, 0, false},
		{0.01, 2, 0.1, 0.5, 100, nan, true},
		{0.01, 2, 0.1, 0.5, 100, inf, true},
		{0.01, 2, 2, -1, -10, -1, true},
	}
}

// FuzzSpecValidate asserts Validate's contract over Spec's float knobs,
// including the non-finite values FuzzReadSpecs cannot reach through JSON:
// a spec Validate accepts has every knob finite, and its normalized form
// has every knob in range.
func FuzzSpecValidate(f *testing.F) {
	for _, v := range fuzzValidateSeeds() {
		f.Add(v.scale, v.alpha, v.p, v.gamma, v.lambda, v.zoneMeters, v.zonal)
	}
	f.Fuzz(func(t *testing.T, scale, alpha, p, gamma, lambda, zoneMeters float64, zonal bool) {
		s := Spec{Scale: scale, Alpha: alpha, P: p, Gamma: &gamma, Lambda: lambda}
		if zonal {
			s.Model = &ModelSpec{Kind: "zonal", ZoneCap: 10, ZoneMeters: zoneMeters}
		}
		if s.Validate() != nil {
			return
		}
		knobs := []float64{scale, alpha, p, gamma, lambda}
		if zonal {
			knobs = append(knobs, zoneMeters)
		}
		for _, v := range knobs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Validate accepted non-finite knob in %+v (gamma %v, zone_meters %v)", s, gamma, zoneMeters)
			}
		}
		n := s.Normalized()
		if !(n.Scale > 0) || !(n.Alpha > 0) || !(n.P > 0 && n.P <= 1) || !(*n.Gamma >= 0) || !(n.Lambda > 0) ||
			(zonal && !(n.Model.ZoneMeters > 0)) {
			t.Fatalf("Validate accepted out-of-range knobs: %+v (gamma %v)", n, *n.Gamma)
		}
	})
}

// TestRegenerateFuzzSpecsCorpus mirrors core's corpus regeneration: with
// UPDATE_FUZZ_CORPUS=1 it rewrites testdata/fuzz/FuzzReadSpecs; otherwise
// it fails if the checked-in corpus went missing.
func TestRegenerateFuzzSpecsCorpus(t *testing.T) {
	regenerateCorpus(t, "FuzzReadSpecs", byteSeeds(fuzzSpecSeeds(t)))
}

// TestRegenerateFuzzPatchCorpus does the same for testdata/fuzz/FuzzPatchOps.
func TestRegenerateFuzzPatchCorpus(t *testing.T) {
	regenerateCorpus(t, "FuzzPatchOps", byteSeeds(fuzzPatchSeeds()))
}

// TestRegenerateFuzzValidateCorpus does the same for
// testdata/fuzz/FuzzSpecValidate.
func TestRegenerateFuzzValidateCorpus(t *testing.T) {
	var rows [][]any
	for _, v := range fuzzValidateSeeds() {
		rows = append(rows, []any{v.scale, v.alpha, v.p, v.gamma, v.lambda, v.zoneMeters, v.zonal})
	}
	regenerateCorpus(t, "FuzzSpecValidate", rows)
}

// byteSeeds wraps single-[]byte seeds as corpus rows.
func byteSeeds(seeds [][]byte) [][]any {
	rows := make([][]any, len(seeds))
	for i, s := range seeds {
		rows[i] = []any{s}
	}
	return rows
}

// regenerateCorpus rewrites testdata/fuzz/<target> from seeds when
// UPDATE_FUZZ_CORPUS is set, and otherwise fails if that corpus is missing.
// Each seed is one row of fuzz arguments, written in the go test fuzz v1
// encoding ([]byte as a quoted literal, anything else as T(value), which
// spells NaN and ±Inf the way the fuzz engine parses them).
func regenerateCorpus(t *testing.T, target string, seeds [][]any) {
	dir := filepath.Join("testdata", "fuzz", target)
	if os.Getenv("UPDATE_FUZZ_CORPUS") == "" {
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) == 0 {
			t.Fatalf("fuzz seed corpus %s missing; regenerate with UPDATE_FUZZ_CORPUS=1 go test -run TestRegenerate", dir)
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		body := "go test fuzz v1\n"
		for _, v := range seed {
			if b, ok := v.([]byte); ok {
				body += fmt.Sprintf("[]byte(%q)\n", b)
			} else {
				body += fmt.Sprintf("%T(%v)\n", v, v)
			}
		}
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
