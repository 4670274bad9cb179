package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
)

// fuzzPlanInstance is the fixed instance every FuzzPlanRoundTrip input is
// replayed against. Keep it stable: the checked-in corpus under
// testdata/fuzz/FuzzPlanRoundTrip encodes plans for exactly this instance.
func fuzzPlanInstance() *Instance {
	r := rng.New(5)
	return randomInstance(r, 30, 12, 8, 3, 0.9, 0.5)
}

// fuzzPlanSeeds returns the seed corpus: a genuine serialized plan plus
// structured corruptions of it.
func fuzzPlanSeeds(tb testing.TB) [][]byte {
	inst := fuzzPlanInstance()
	var buf bytes.Buffer
	if err := WritePlan(&buf, GreedyOrder(inst)); err != nil {
		tb.Fatal(err)
	}
	valid := buf.Bytes()
	return [][]byte{
		valid,
		nil,
		[]byte("{}"),
		[]byte(`{"version":1}`),
		[]byte(`not json at all`),
		bytes.Replace(valid, []byte(`"version": 1`), []byte(`"version": 2`), 1),
		bytes.Replace(valid, []byte(`"gamma": 0.5`), []byte(`"gamma": 0.25`), 1),
		// Truncation mid-document.
		valid[:len(valid)/2],
	}
}

// FuzzPlanRoundTrip asserts the planio contract under arbitrary bytes:
// ReadPlan never panics, anything it accepts validates against the
// instance, and Write∘Read is the identity on accepted plans.
func FuzzPlanRoundTrip(f *testing.F) {
	inst := fuzzPlanInstance()
	for _, seed := range fuzzPlanSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPlan(bytes.NewReader(data), inst)
		if err != nil {
			return // rejected input; only panics are bugs here
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ReadPlan accepted a plan that fails validation: %v", err)
		}
		var out bytes.Buffer
		if err := WritePlan(&out, p); err != nil {
			t.Fatalf("re-serialize accepted plan: %v", err)
		}
		q, err := ReadPlan(bytes.NewReader(out.Bytes()), inst)
		if err != nil {
			t.Fatalf("re-read serialized plan: %v", err)
		}
		if q.TotalRegret() != p.TotalRegret() {
			t.Fatalf("round-trip regret %v != %v", q.TotalRegret(), p.TotalRegret())
		}
		for i := 0; i < inst.NumAdvertisers(); i++ {
			a, b := p.Set(i, nil), q.Set(i, nil)
			if len(a) != len(b) {
				t.Fatalf("advertiser %d: round-trip set %v != %v", i, b, a)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("advertiser %d: round-trip set %v != %v", i, b, a)
				}
			}
			if p.Influence(i) != q.Influence(i) {
				t.Fatalf("advertiser %d: round-trip influence %d != %d", i, q.Influence(i), p.Influence(i))
			}
		}
	})
}

// TestRegenerateFuzzPlanCorpus rewrites the checked-in seed corpus when run
// with UPDATE_FUZZ_CORPUS=1; otherwise it verifies the files exist so a
// deleted corpus is caught before the fuzz targets silently run seedless.
func TestRegenerateFuzzPlanCorpus(t *testing.T) {
	var seeds [][]any
	for _, s := range fuzzPlanSeeds(t) {
		if len(s) > 0 { // the corpus encoder round-trips nil to ""; skip the empty seed
			seeds = append(seeds, []any{s})
		}
	}
	writeFuzzCorpus(t, filepath.Join("testdata", "fuzz", "FuzzPlanRoundTrip"), seeds)
}

// writeFuzzCorpus writes one "go test fuzz v1" file per seed under dir (when
// UPDATE_FUZZ_CORPUS=1) or asserts the directory is non-empty. Each seed is
// one row of fuzz arguments: a []byte as a quoted literal, anything else as
// T(value).
func writeFuzzCorpus(t *testing.T, dir string, seeds [][]any) {
	t.Helper()
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
