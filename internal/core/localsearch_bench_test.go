package core

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// benchProtoPlan builds a seeded, greedily completed baseline plan — the
// state BLS starts from inside the randomized framework.
func benchProtoPlan(inst *Instance) *Plan {
	p := NewPlan(inst)
	seedRandomPlan(p, rng.New(5))
	SynchronousGreedy(p)
	return p
}

// BenchmarkBillboardLocalSearch measures one full BLS improvement of a
// seeded baseline, on the base market and on a zonal copy (billboards
// round-robin into 8 zones capped at the maximum degree, as in
// BenchmarkSynchronousGreedySelection), where CanSwap rejects swaps. The
// allocation count is the headline: the sweep reuses its member/free-list
// buffers and one scratch trial plan, so allocs/op stays flat in the
// number of passes and moves.
func BenchmarkBillboardLocalSearch(b *testing.B) {
	inst := randomInstance(rng.New(9), 2000, 120, 60, 8, 1.2, 0.5)
	opts := LocalSearchOptions{Search: BillboardDriven}.withDefaults()
	for _, market := range []*Instance{inst, roundRobinZonal(b, inst)} {
		b.Run(market.Model().Kind(), func(b *testing.B) {
			proto := benchProtoPlan(market)
			scratch := proto.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scratch.CopyFrom(proto)
				BillboardLocalSearch(scratch, opts)
			}
			b.ReportMetric(float64(scratch.Evals()-proto.Evals()), "evals")
		})
	}
}

// roundRobinZonal attaches a ZonalModel to inst: billboards go round-robin
// into 8 zones, each capped at the maximum degree.
func roundRobinZonal(b *testing.B, inst *Instance) *Instance {
	zoneOf := make([]int, inst.Universe().NumBillboards())
	for bb := range zoneOf {
		zoneOf[bb] = bb % 8
	}
	zm, err := NewZonalModel(zoneOf, int64(inst.Universe().MaxDegree()))
	if err != nil {
		b.Fatal(err)
	}
	zinst, err := inst.WithModel(zm)
	if err != nil {
		b.Fatal(err)
	}
	return zinst
}

// BenchmarkSynchronousGreedySelection measures G-Global's billboard
// selection, reporting the marginal-evaluation count per run. The instance
// is sized so selection dominates (600 high-degree billboards, 40
// advertisers). The zonal market splits the billboards round-robin into 8
// zones capped at the maximum degree, so every advertiser's demand exceeds
// what the caps let it hold and every candidate's CanAssign check matters.
func BenchmarkSynchronousGreedySelection(b *testing.B) {
	inst := randomInstance(rng.New(9), 20000, 600, 400, 40, 1.2, 0.5)
	for _, market := range []*Instance{inst, roundRobinZonal(b, inst)} {
		b.Run(market.Model().Kind(), func(b *testing.B) {
			var evals int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				evals = GGlobal(market).Evals()
			}
			b.ReportMetric(float64(evals), "evals")
		})
	}
}

// BenchmarkRandomizedLocalSearchWorkers exercises the parallel restart
// engine at several worker counts (results are bit-identical across them;
// only wall-clock changes, and only on multi-core hosts).
func BenchmarkRandomizedLocalSearchWorkers(b *testing.B) {
	inst := randomInstance(rng.New(9), 2000, 120, 60, 8, 1.2, 0.5)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var regret float64
			for i := 0; i < b.N; i++ {
				p := RandomizedLocalSearch(inst, LocalSearchOptions{
					Search: BillboardDriven, Restarts: 8, Seed: 5, Workers: workers,
				})
				regret = p.TotalRegret()
			}
			b.ReportMetric(regret, "regret")
		})
	}
}
