package influence_test

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/dataset"
	"repro/internal/influence"
)

// TestDistributionInvariantUnderCompression runs Figure 1's from-scratch
// union queries on a corridor-compressed universe, whose coverage IDs carry
// weights, and requires exactly the values of the uncompressed universe.
// Dataset.BuildUniverse does not compress, so every other test of these
// functions sees weight 1 only.
func TestDistributionInvariantUnderCompression(t *testing.T) {
	d, err := dataset.Generate(dataset.DefaultNYC(7).Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	u, err := d.BuildUniverse(influence.DefaultLambda)
	if err != nil {
		t.Fatal(err)
	}
	cu, _ := coverage.Compress(u)
	if !cu.Weighted() || cu.NumIDs() >= u.NumIDs() {
		t.Fatalf("compression left %d of %d IDs (weighted %v); the test needs a weighted universe",
			cu.NumIDs(), u.NumIDs(), cu.Weighted())
	}

	// Unsorted on purpose: ImpressionCurve walks the fractions in ascending
	// order through an index sort.
	fractions := []float64{0.3, 0, 1, 0.05, 0.75, 0.1}
	want := influence.ImpressionCurve(u, fractions)
	got := influence.ImpressionCurve(cu, fractions)
	for i, f := range fractions {
		if got[i] != want[i] {
			t.Errorf("ImpressionCurve at %.2f: compressed %v, uncompressed %v", f, got[i], want[i])
		}
	}
	if want[2] == 0 {
		t.Fatal("ImpressionCurve at 1.0 is 0; the universe covers nothing")
	}

	for _, k := range []int{1, 2, 5, 20, u.NumBillboards()} {
		if got, want := influence.OverlapRatio(cu, k), influence.OverlapRatio(u, k); got != want {
			t.Errorf("OverlapRatio(k=%d): compressed %v, uncompressed %v", k, got, want)
		}
	}
}
