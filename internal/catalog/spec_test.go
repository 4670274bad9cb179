package catalog

import (
	"cmp"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestSpecJSONRoundTrip pins the Spec wire format: the golden file decodes
// to specs that re-encode byte-identically (no field renames, reorderings
// or omitempty regressions can slip in silently), and decoding is lossless.
func TestSpecJSONRoundTrip(t *testing.T) {
	specs := []Spec{
		{}, // everything defaulted
		{Name: "nyc-quarter", City: "NYC", Scale: 0.25, Seed: 42},
		{Name: "sg-dense", City: "SG", Scale: 0.5, Seed: 7, Alpha: 1.2, P: 0.2,
			Gamma: GammaPtr(0), Lambda: 150}, // γ=0 must survive the trip
		{Name: "from-disk", Data: "data/nyc", Alpha: 0.8, P: 0.05},
		{Name: "zonal-default-grid", City: "NYC", Scale: 0.02, Seed: 5,
			Model: &ModelSpec{Kind: "zonal", ZoneCap: 40}},
		{Name: "zonal-fine-grid", City: "SG", Scale: 0.1, Seed: 9,
			Model: &ModelSpec{Kind: "zonal", ZoneCap: 12, ZoneMeters: 500}},
		DefaultSpec(),
	}
	got, err := json.MarshalIndent(specs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	const path = "testdata/specs.golden"
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("spec encoding drifted from golden (run with -update to accept):\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Decoding the golden must reproduce the specs losslessly — in
	// particular the nil-vs-zero γ distinction.
	var back []Spec
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, specs) {
		t.Errorf("round trip lost data:\ngot  %+v\nwant %+v", back, specs)
	}
}

func TestNormalizedFillsDefaults(t *testing.T) {
	n := Spec{}.Normalized()
	want := DefaultSpec()
	want.Seed = 0 // seed 0 is a valid seed and must not be rewritten
	if n.City != want.City || n.Scale != want.Scale || n.Seed != 0 ||
		n.Alpha != want.Alpha || n.P != want.P || *n.Gamma != *want.Gamma ||
		n.Lambda != want.Lambda {
		t.Errorf("Normalized zero spec = %+v, want %+v", n, want)
	}

	// An explicit γ=0 survives normalization.
	z := Spec{Gamma: GammaPtr(0)}.Normalized()
	if *z.Gamma != 0 {
		t.Errorf("γ=0 rewritten to %v", *z.Gamma)
	}

	// A Data spec must not invent a city or scale.
	d := Spec{Data: "data/nyc"}.Normalized()
	if d.City != "" || d.Scale != 0 {
		t.Errorf("Data spec normalized to city %q scale %v", d.City, d.Scale)
	}

	// Normalizing is idempotent.
	if !reflect.DeepEqual(n.Normalized(), n) {
		t.Error("Normalized is not idempotent")
	}
}

func TestValidateNames(t *testing.T) {
	for _, ok := range []string{"a", "nyc-quarter", "A.b_c-9", "0x"} {
		if err := ValidateName(ok); err != nil {
			t.Errorf("ValidateName(%q): %v", ok, err)
		}
	}
	long := make([]byte, 66)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "-lead", ".lead", "has space", "a/b", string(long)} {
		if err := ValidateName(bad); err == nil {
			t.Errorf("ValidateName(%q) accepted", bad)
		}
	}
}

func TestDescribe(t *testing.T) {
	got := Spec{}.Describe()
	if got != "α=100%, p=5%, γ=0.50, λ=100m" {
		t.Errorf("Describe() = %q", got)
	}
}

// TestValidateRejectsNonFinite: flag.Float64 parses "NaN" and "Inf", and
// no range check rejects NaN, so every float knob must be checked for
// finiteness explicitly. Unchecked, a NaN λ crashed a coverage worker, a
// NaN α or p built a one-advertiser market and an infinite λ a
// one-corridor universe.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	zonal := func(m float64) *ModelSpec { return &ModelSpec{Kind: "zonal", ZoneCap: 10, ZoneMeters: m} }
	for _, v := range []float64{nan, inf, -inf} {
		cases := []struct {
			knob string
			spec Spec
		}{
			{"scale", Spec{Scale: v}},
			{"alpha", Spec{Alpha: v}},
			{"p", Spec{P: v}},
			{"gamma", Spec{Gamma: GammaPtr(v)}},
			{"lambda", Spec{Lambda: v}},
			{"zone_meters", Spec{Model: zonal(v)}},
		}
		for _, c := range cases {
			c.spec.Scale = cmp.Or(c.spec.Scale, 0.01)
			err := c.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), c.knob+" ") || !strings.Contains(err.Error(), "finite") {
				t.Errorf("%s=%v: Validate = %v, want a finiteness error naming %s", c.knob, v, err, c.knob)
			}
			if _, _, err := Build(c.spec); err == nil {
				t.Errorf("%s=%v: Build accepted", c.knob, v)
			}
		}
	}
}
