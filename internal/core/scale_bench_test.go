package core_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
)

// BenchmarkGGlobalNYC times G-Global on a generated, corridor-compressed
// NYC universe with the paper's 1462 billboards and a quarter of its
// trajectories: the substrate the paper-scale solves run on, whose
// corridor numbering decides how the Counter kernels walk memory. Random
// universes have no such structure. The build takes a few seconds and is
// not timed.
func BenchmarkGGlobalNYC(b *testing.B) {
	inst, info, err := catalog.Build(catalog.Spec{Tier: catalog.TierScale, Scale: 0.25, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var evals int64
	for i := 0; i < b.N; i++ {
		evals = core.GGlobal(inst).Evals()
	}
	b.ReportMetric(float64(evals), "evals")
	b.ReportMetric(float64(info.Corridors), "corridors")
}
