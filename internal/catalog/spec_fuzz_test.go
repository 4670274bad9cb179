package catalog

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// TestRegenerateFuzzSpecsCorpus mirrors core's corpus regeneration: with
// UPDATE_FUZZ_CORPUS=1 it rewrites testdata/fuzz/FuzzReadSpecs; otherwise
// it fails if the checked-in corpus went missing.
func TestRegenerateFuzzSpecsCorpus(t *testing.T) {
	regenerateCorpus(t, "FuzzReadSpecs", fuzzSpecSeeds(t))
}

// TestRegenerateFuzzPatchCorpus does the same for testdata/fuzz/FuzzPatchOps.
func TestRegenerateFuzzPatchCorpus(t *testing.T) {
	regenerateCorpus(t, "FuzzPatchOps", fuzzPatchSeeds())
}

// regenerateCorpus rewrites testdata/fuzz/<target> from seeds when
// UPDATE_FUZZ_CORPUS is set, and otherwise fails if that corpus is missing.
func regenerateCorpus(t *testing.T, target string, seeds [][]byte) {
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
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
