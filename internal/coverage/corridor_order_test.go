package coverage_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/coverage"
	"repro/internal/dataset"
)

// TestCorridorIDsFollowSignatureOrder pins the corridor numbering on a
// generated NYC universe: Compress of the materialized build and the
// streamed build, at one and three join workers, must both number
// corridors in strictly ascending lexicographic order of their
// signatures — the billboards covering each corridor, read back from the
// inverted index.
func TestCorridorIDsFollowSignatureOrder(t *testing.T) {
	const lambda = 100
	cfg := dataset.DefaultNYC(11).Scale(0.1)
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := d.BuildUniverse(lambda)
	if err != nil {
		t.Fatal(err)
	}
	compressed, _ := coverage.Compress(raw)
	assertSignatureOrder(t, "Compress", compressed)
	for _, workers := range []int{1, 3} {
		s, err := dataset.GenerateUniverse(cfg, dataset.StreamOptions{Lambda: lambda, ChunkSize: 257, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		assertSignatureOrder(t, fmt.Sprintf("streamed, %d workers", workers), s.Universe)
	}
}

func assertSignatureOrder(t *testing.T, name string, u *coverage.Universe) {
	t.Helper()
	if !u.Weighted() || u.NumIDs() < 2 {
		t.Fatalf("%s: %d corridors, want a compressed universe with several", name, u.NumIDs())
	}
	prev := coverage.Signature(u, 0)
	for id := int32(1); int(id) < u.NumIDs(); id++ {
		sig := coverage.Signature(u, id)
		if slices.Compare(prev, sig) >= 0 {
			t.Fatalf("%s: corridor %d signature %v does not follow corridor %d's %v", name, id, sig, id-1, prev)
		}
		prev = sig
	}
}
