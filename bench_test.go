// Benchmark harness regenerating every table and figure of the paper's
// evaluation (Section 7). Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableX/BenchmarkFigureX regenerates the corresponding
// artifact and reports the headline numbers via b.ReportMetric, so the
// bench output doubles as the reproduction record (EXPERIMENTS.md collects
// a full run). Scale note: benches run the synthetic datasets at
// benchScale of the default size — the paper's claims are about ratios
// (who wins and by how much), which are scale-stable; see DESIGN.md.
package mroam_test

import (
	"fmt"
	"sync"
	"testing"

	mroam "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/influence"
	"repro/internal/market"
	"repro/internal/rng"
)

const (
	benchScale    = 0.15
	benchSeed     = 2021 // the paper's year
	benchRestarts = 2
)

var (
	benchOnce   sync.Once
	benchShared *experiment.Runner
)

// benchRunner returns the process-wide harness, generating datasets and
// caching universes on first use so individual benches time only their own
// sweep.
func benchRunner() *experiment.Runner {
	benchOnce.Do(func() {
		benchShared = experiment.NewRunner(experiment.Config{
			Scale:    benchScale,
			Seed:     benchSeed,
			Restarts: benchRestarts,
		})
	})
	return benchShared
}

// warm forces dataset generation and universe construction outside the
// benchmark timer.
func warm(b *testing.B, cities []dataset.City, lambdas []float64) *experiment.Runner {
	b.Helper()
	r := benchRunner()
	for _, c := range cities {
		for _, l := range lambdas {
			if _, err := r.Universe(c, l); err != nil {
				b.Fatal(err)
			}
		}
	}
	return r
}

var bothCities = []dataset.City{dataset.NYC, dataset.SG}

// reportFigure pushes the per-method mean total regret (and the paper's
// headline ratios) into the benchmark output.
func reportFigure(b *testing.B, figs []experiment.Figure) {
	b.Helper()
	sums := map[string]float64{}
	n := 0
	for _, fig := range figs {
		for _, pt := range fig.Points {
			n++
			for _, m := range pt.Metrics {
				sums[m.Algorithm] += m.TotalRegret
			}
		}
	}
	if n == 0 {
		return
	}
	for alg, s := range sums {
		b.ReportMetric(s/float64(n), alg+"-regret")
	}
	if sums["BLS"] > 0 {
		b.ReportMetric(sums["G-Order"]/sums["BLS"], "GOrder/BLS")
		b.ReportMetric(sums["G-Global"]/sums["BLS"], "GGlobal/BLS")
	}
}

// BenchmarkTable5_DatasetStats regenerates Table 5 (dataset statistics).
func BenchmarkTable5_DatasetStats(b *testing.B) {
	r := warm(b, bothCities, []float64{market.DefaultLambda})
	b.ResetTimer()
	var rows []dataset.Table5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.Table5()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].AvgDistanceKM, "NYC-avg-km")
	b.ReportMetric(rows[0].AvgTravelSec, "NYC-avg-sec")
	b.ReportMetric(rows[1].AvgDistanceKM, "SG-avg-km")
	b.ReportMetric(rows[1].AvgTravelSec, "SG-avg-sec")
}

// BenchmarkFigure1a_InfluenceDistribution regenerates Figure 1a (billboard
// influence distribution, both cities).
func BenchmarkFigure1a_InfluenceDistribution(b *testing.B) {
	r := warm(b, bothCities, []float64{market.DefaultLambda})
	b.ResetTimer()
	var series []experiment.DistributionSeries
	for i := 0; i < b.N; i++ {
		var err error
		series, err = r.Figure1()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Median normalized influence: lower = heavier tail (NYC < SG).
	mid := len(series[0].InfluenceCurve) / 2
	b.ReportMetric(series[0].InfluenceCurve[mid], "NYC-median-norm-infl")
	b.ReportMetric(series[1].InfluenceCurve[mid], "SG-median-norm-infl")
}

// BenchmarkFigure1b_ImpressionCounts regenerates Figure 1b (impression
// count vs fraction of billboards selected).
func BenchmarkFigure1b_ImpressionCounts(b *testing.B) {
	r := warm(b, bothCities, []float64{market.DefaultLambda})
	b.ResetTimer()
	var series []experiment.DistributionSeries
	for i := 0; i < b.N; i++ {
		var err error
		series, err = r.Figure1()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Coverage at 30% of billboards: SG's curve rises faster (less
	// overlap) than NYC's.
	at := 3 // fractions[3] = 0.3
	b.ReportMetric(series[0].ImpressionCurve[at], "NYC-impression@30pct")
	b.ReportMetric(series[1].ImpressionCurve[at], "SG-impression@30pct")
}

// benchFigure is the shared body of the per-figure effectiveness benches.
func benchFigure(b *testing.B, num int, cities []dataset.City, lambdas []float64) {
	r := warm(b, cities, lambdas)
	b.ResetTimer()
	var figs []experiment.Figure
	for i := 0; i < b.N; i++ {
		var err error
		figs, err = r.Figure(num)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, figs)
}

var defaultLambdaOnly = []float64{market.DefaultLambda}

// BenchmarkFigure2_RegretAlpha_P1 regenerates Figure 2: regret vs α at
// p=1% (many small advertisers) on NYC.
func BenchmarkFigure2_RegretAlpha_P1(b *testing.B) {
	benchFigure(b, 2, []dataset.City{dataset.NYC}, defaultLambdaOnly)
}

// BenchmarkFigure3_RegretAlpha_P2 regenerates Figure 3 (p=2%, NYC).
func BenchmarkFigure3_RegretAlpha_P2(b *testing.B) {
	benchFigure(b, 3, []dataset.City{dataset.NYC}, defaultLambdaOnly)
}

// BenchmarkFigure4_RegretAlpha_P5 regenerates Figure 4 (p=5%, NYC).
func BenchmarkFigure4_RegretAlpha_P5(b *testing.B) {
	benchFigure(b, 4, []dataset.City{dataset.NYC}, defaultLambdaOnly)
}

// BenchmarkFigure5_RegretAlpha_P10 regenerates Figure 5 (p=10%, NYC).
func BenchmarkFigure5_RegretAlpha_P10(b *testing.B) {
	benchFigure(b, 5, []dataset.City{dataset.NYC}, defaultLambdaOnly)
}

// BenchmarkFigure6_RegretAlpha_P20 regenerates Figure 6 (p=20%, few big
// advertisers, NYC).
func BenchmarkFigure6_RegretAlpha_P20(b *testing.B) {
	benchFigure(b, 6, []dataset.City{dataset.NYC}, defaultLambdaOnly)
}

// BenchmarkFigure7_SGDefault regenerates Figure 7: the SG dataset at the
// default p across the α grid.
func BenchmarkFigure7_SGDefault(b *testing.B) {
	benchFigure(b, 7, []dataset.City{dataset.SG}, defaultLambdaOnly)
}

// reportRuntime pushes per-method mean wall-clock seconds into the bench
// output for the efficiency figures.
func reportRuntime(b *testing.B, figs []experiment.Figure) {
	b.Helper()
	sums := map[string]float64{}
	n := 0
	for _, fig := range figs {
		for _, pt := range fig.Points {
			n++
			for _, m := range pt.Metrics {
				sums[m.Algorithm] += m.Runtime.Seconds()
			}
		}
	}
	for alg, s := range sums {
		b.ReportMetric(s/float64(n), alg+"-sec")
	}
}

// BenchmarkFigure8_RuntimeAlpha regenerates Figure 8: running time vs α on
// both cities.
func BenchmarkFigure8_RuntimeAlpha(b *testing.B) {
	r := warm(b, bothCities, defaultLambdaOnly)
	b.ResetTimer()
	var figs []experiment.Figure
	for i := 0; i < b.N; i++ {
		var err error
		figs, err = r.Figure(8)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRuntime(b, figs)
}

// BenchmarkFigure9_RuntimeP regenerates Figure 9: running time vs p on both
// cities.
func BenchmarkFigure9_RuntimeP(b *testing.B) {
	r := warm(b, bothCities, defaultLambdaOnly)
	b.ResetTimer()
	var figs []experiment.Figure
	for i := 0; i < b.N; i++ {
		var err error
		figs, err = r.Figure(9)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRuntime(b, figs)
}

// BenchmarkFigure10_GammaNYC regenerates Figure 10: regret vs γ on NYC.
func BenchmarkFigure10_GammaNYC(b *testing.B) {
	benchFigure(b, 10, []dataset.City{dataset.NYC}, defaultLambdaOnly)
}

// BenchmarkFigure11_GammaSG regenerates Figure 11: regret vs γ on SG.
func BenchmarkFigure11_GammaSG(b *testing.B) {
	benchFigure(b, 11, []dataset.City{dataset.SG}, defaultLambdaOnly)
}

// BenchmarkFigure12_Lambda regenerates Figure 12: regret vs λ on both
// cities (the λ grid needs one universe per λ).
func BenchmarkFigure12_Lambda(b *testing.B) {
	benchFigure(b, 12, bothCities, market.Lambdas)
}

// --- Ablation benches for the design choices called out in DESIGN.md ---

// ablationInstance builds one NYC instance at the default workload for the
// solver ablations.
func ablationInstance(b *testing.B) *core.Instance {
	b.Helper()
	r := warm(b, []dataset.City{dataset.NYC}, defaultLambdaOnly)
	u, err := r.Universe(dataset.NYC, market.DefaultLambda)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := market.NewInstance(u,
		market.Config{Alpha: market.DefaultAlpha, P: market.DefaultP},
		market.DefaultGamma, rng.New(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkAblation_RestartCount varies the random restart count of the
// local search framework (Algorithm 3's preset iteration count).
func BenchmarkAblation_RestartCount(b *testing.B) {
	inst := ablationInstance(b)
	for _, restarts := range []int{1, 2, 5, 10} {
		b.Run(fmt.Sprintf("restarts=%d", restarts), func(b *testing.B) {
			var regret float64
			for i := 0; i < b.N; i++ {
				p := mroam.BLS(inst, mroam.SearchOptions{Restarts: restarts, Seed: benchSeed})
				regret = p.TotalRegret()
			}
			b.ReportMetric(regret, "regret")
		})
	}
}

// BenchmarkAblation_BLSImprovementRatio varies the acceptance threshold r
// of Definition 6.1: larger r terminates earlier at the cost of a looser
// (1+r)-approximate local maximum.
func BenchmarkAblation_BLSImprovementRatio(b *testing.B) {
	inst := ablationInstance(b)
	for _, ratio := range []float64{0, 0.001, 0.01, 0.1} {
		b.Run(fmt.Sprintf("r=%g", ratio), func(b *testing.B) {
			var regret float64
			for i := 0; i < b.N; i++ {
				p := mroam.BLS(inst, mroam.SearchOptions{
					Restarts: 1, Seed: benchSeed, ImprovementRatio: ratio,
				})
				regret = p.TotalRegret()
			}
			b.ReportMetric(regret, "regret")
		})
	}
}

// BenchmarkAblation_RandomSeedPlan compares the synchronous greedy from an
// empty plan against the framework's random-seeded variant (Lines 3.3-3.7),
// isolating the value of the probabilistic assignments.
func BenchmarkAblation_RandomSeedPlan(b *testing.B) {
	inst := ablationInstance(b)
	b.Run("empty-init", func(b *testing.B) {
		var regret float64
		for i := 0; i < b.N; i++ {
			regret = core.GGlobal(inst).TotalRegret()
		}
		b.ReportMetric(regret, "regret")
	})
	b.Run("random-seeded", func(b *testing.B) {
		var regret float64
		for i := 0; i < b.N; i++ {
			// One restart with no local search isolates the seeding.
			p := core.RandomizedLocalSearch(inst, core.LocalSearchOptions{
				Search: core.AdvertiserDriven, Restarts: 1, Seed: benchSeed, MaxPasses: 1,
			})
			regret = p.TotalRegret()
		}
		b.ReportMetric(regret, "regret")
	})
}

// BenchmarkAblation_IncrementalCoverage compares the incremental counter
// (O(1) marginal gains) against from-scratch union recomputation, the
// core data-structure choice of this implementation.
func BenchmarkAblation_IncrementalCoverage(b *testing.B) {
	r := warm(b, []dataset.City{dataset.NYC}, defaultLambdaOnly)
	u, err := r.Universe(dataset.NYC, market.DefaultLambda)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := market.NewInstance(u,
		market.Config{Alpha: market.DefaultAlpha, P: market.DefaultP},
		market.DefaultGamma, rng.New(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	plan := core.GGlobal(inst)
	members := plan.Set(0, nil)
	if len(members) == 0 {
		b.Fatal("advertiser 0 got no billboards")
	}
	free := plan.UnassignedBillboards(nil)
	if len(free) == 0 {
		b.Skip("no unassigned billboards at this workload")
	}
	b.Run("incremental-gain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = plan.GainOf(0, free[i%len(free)])
		}
	})
	b.Run("naive-recompute", func(b *testing.B) {
		base := append([]int(nil), members...)
		for i := 0; i < b.N; i++ {
			withB := append(base, free[i%len(free)])
			_ = u.UnionCount(withB) - u.UnionCount(base)
			base = base[:len(members)]
		}
	})
}

// BenchmarkAblation_GridCellSize varies the spatial-index cell size used by
// the influence model's radius queries.
func BenchmarkAblation_GridCellSize(b *testing.B) {
	r := benchRunner()
	d, err := r.Dataset(dataset.NYC)
	if err != nil {
		b.Fatal(err)
	}
	for _, cell := range []float64{25, 100, 400} {
		b.Run(fmt.Sprintf("cell=%gm", cell), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := influence.BuildCoverage(d.Trajectories, d.Billboards, influence.Options{
					Lambda:   market.DefaultLambda,
					CellSize: cell,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolvers times each method once on the default NYC workload —
// the per-method numbers behind Figures 8-9's ordering claim.
func BenchmarkSolvers(b *testing.B) {
	inst := ablationInstance(b)
	for _, alg := range mroam.Algorithms(benchSeed, benchRestarts) {
		b.Run(alg.Name(), func(b *testing.B) {
			var regret float64
			for i := 0; i < b.N; i++ {
				regret = alg.Solve(inst).TotalRegret()
			}
			b.ReportMetric(regret, "regret")
		})
	}
}

// BenchmarkApproximationGap measures the empirical optimality gap of every
// method against the exact solver on small random instances (ground-truth
// companion to §4's inapproximability result).
func BenchmarkApproximationGap(b *testing.B) {
	var rows []experiment.GapRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.ApproximationGap(experiment.GapConfig{
			Instances: 10, Billboards: 8, Advertisers: 2, Seed: benchSeed, Restarts: benchRestarts,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		b.ReportMetric(row.MeanRatio, row.Algorithm+"-mean-ratio")
	}
}

// BenchmarkSimulation_PolicyComparison runs the rolling-market simulator
// (the introduction's advertisers-arrive-daily setting) with each method as
// the daily policy and reports revenue per policy.
func BenchmarkSimulation_PolicyComparison(b *testing.B) {
	r := warm(b, []dataset.City{dataset.NYC}, defaultLambdaOnly)
	u, err := r.Universe(dataset.NYC, market.DefaultLambda)
	if err != nil {
		b.Fatal(err)
	}
	cfg := mroam.SimulationConfig{
		Days:             14,
		ArrivalsPerDay:   4,
		ContractMinDays:  2,
		ContractMaxDays:  5,
		DemandFractionLo: 0.04,
		DemandFractionHi: 0.12,
		Gamma:            market.DefaultGamma,
		Seed:             benchSeed,
	}
	algs := mroam.Algorithms(benchSeed, 1)
	b.ResetTimer()
	var results map[string]*mroam.SimulationResult
	for i := 0; i < b.N; i++ {
		results, err = mroam.ComparePolicies(u, algs, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for name, res := range results {
		b.ReportMetric(res.TotalRevenue, name+"-revenue")
	}
}

// BenchmarkAblation_ImpressionThreshold compares the union-coverage
// influence (k=1, the paper's measure) with the impression-count measure
// (k=2, the cited KDD'19 alternative) on the same universe. Demands are
// scaled to each measure's attainable coverage so the workloads are
// comparable.
func BenchmarkAblation_ImpressionThreshold(b *testing.B) {
	r := warm(b, []dataset.City{dataset.NYC}, defaultLambdaOnly)
	u, err := r.Universe(dataset.NYC, market.DefaultLambda)
	if err != nil {
		b.Fatal(err)
	}
	all := make([]int, u.NumBillboards())
	for i := range all {
		all[i] = i
	}
	for _, k := range []int{1, 2} {
		attainable := u.UnionCountK(all, k)
		if attainable == 0 {
			continue
		}
		seedRNG := rng.New(benchSeed).Derive(fmt.Sprintf("impressions-%d", k))
		advs := make([]mroam.Advertiser, 5)
		for i := range advs {
			d := int64(float64(attainable) / 8 * seedRNG.Range(0.8, 1.2))
			if d < 1 {
				d = 1
			}
			advs[i] = mroam.Advertiser{Demand: d, Payment: float64(d)}
		}
		inst, err := core.NewInstanceWithImpressions(u, advs, market.DefaultGamma, k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var regret float64
			for i := 0; i < b.N; i++ {
				regret = mroam.BLS(inst, mroam.SearchOptions{Restarts: 1, Seed: benchSeed}).TotalRegret()
			}
			b.ReportMetric(regret, "regret")
			b.ReportMetric(float64(attainable), "attainable-coverage")
		})
	}
}

// BenchmarkAblation_SpatialIndex compares the two spatial indexes for the
// influence-model join: the tuned uniform grid vs the parameter-free
// STR-packed R-tree.
func BenchmarkAblation_SpatialIndex(b *testing.B) {
	r := benchRunner()
	d, err := r.Dataset(dataset.NYC)
	if err != nil {
		b.Fatal(err)
	}
	for _, idx := range []struct {
		name string
		kind influence.IndexKind
	}{
		{"grid", influence.GridIndex},
		{"rtree", influence.RTreeIndex},
	} {
		b.Run(idx.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := influence.BuildCoverage(d.Trajectories, d.Billboards, influence.Options{
					Lambda: market.DefaultLambda,
					Index:  idx.kind,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_MarketComposition tests the paper's Q2 conclusion
// ("having a large number of medium-demand advertisers is an ideal
// balance"): the same global demand α composed as many small advertisers,
// few big ones, or a mix, allocated by BLS.
func BenchmarkAblation_MarketComposition(b *testing.B) {
	r := warm(b, []dataset.City{dataset.NYC}, defaultLambdaOnly)
	u, err := r.Universe(dataset.NYC, market.DefaultLambda)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"many-small", "few-big", "mixed"} {
		cfg := market.Compositions(market.DefaultAlpha)[name]
		advs, err := market.GenerateMixed(u, cfg, rng.New(benchSeed))
		if err != nil {
			b.Fatal(err)
		}
		inst, err := core.NewInstance(u, advs, market.DefaultGamma)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var regret float64
			var satisfied int
			for i := 0; i < b.N; i++ {
				p := mroam.BLS(inst, mroam.SearchOptions{Restarts: 1, Seed: benchSeed})
				regret = p.TotalRegret()
				satisfied = p.SatisfiedCount()
			}
			b.ReportMetric(regret, "regret")
			b.ReportMetric(float64(satisfied)/float64(inst.NumAdvertisers()), "satisfied-frac")
		})
	}
}
