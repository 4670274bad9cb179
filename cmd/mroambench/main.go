// Command mroambench measures the compressed coverage substrate end to
// end: for a ladder of trajectory counts it streams a paper-configuration
// dataset straight into a corridor-compressed coverage universe and runs a
// 1-restart BLS solve on it — optionally next to a dense baseline, built by
// the materializing Generate + BuildUniverse path, whose regret must match
// bit-for-bit.
//
// The JSON report (see BENCH_coverage.json at the repository root for a
// recorded run) is the evidence behind the "paper-scale instances solve
// in memory" claim: build time, compression ratio, resident bytes, and
// solve time at each rung.
//
// Usage:
//
//	mroambench -out BENCH_coverage.json                  # full ladder
//	mroambench -sizes 500000 -dense-max 0 -deadline 10m  # scale smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/dataset"
	"repro/internal/market"
	"repro/internal/rng"
)

// Run is one rung of the size ladder in the JSON report.
type Run struct {
	Trajectories int `json:"trajectories"`
	// BuildMS is the streaming build: generation, the spatial join and
	// corridor assignment.
	BuildMS   float64 `json:"build_ms"`
	Covered   int     `json:"covered_trajectories"`
	Corridors int     `json:"corridors"`
	Ratio     float64 `json:"compression_ratio"`
	// DenseListBytes / CorridorListBytes are the coverage-list payloads
	// (4 bytes per entry) on each substrate — the state every Counter scan
	// walks and the number the compression ratio acts on. The dense payload
	// is 4 × TotalSupply: one entry per (billboard, trajectory) hit.
	DenseListBytes    int64   `json:"dense_list_bytes"`
	CorridorListBytes int64   `json:"corridor_list_bytes"`
	HeapBytes         uint64  `json:"heap_bytes"`
	Advertisers       int     `json:"advertisers"`
	CompressedSolveMS float64 `json:"compressed_solve_ms"`
	CompressedRegret  float64 `json:"compressed_regret"`
	DenseSolveMS      float64 `json:"dense_solve_ms,omitempty"`
	DenseRegret       float64 `json:"dense_regret,omitempty"`
	// RegretMatch is set (and must be true) when the dense baseline ran.
	RegretMatch *bool `json:"regret_match,omitempty"`
}

// Report is the document mroambench writes.
type Report struct {
	Bench      string  `json:"bench"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	City       string  `json:"city"`
	Seed       uint64  `json:"seed"`
	Lambda     float64 `json:"lambda"`
	Restarts   int     `json:"restarts"`
	Runs       []Run   `json:"runs"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mroambench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mroambench", flag.ContinueOnError)
	fs.SetOutput(out)
	sizesFlag := fs.String("sizes", "50000,500000,1700000", "comma-separated trajectory counts")
	city := fs.String("city", "NYC", "city generator (NYC or SG)")
	seed := fs.Uint64("seed", 42, "generator seed")
	restarts := fs.Int("restarts", 1, "BLS restarts per solve")
	denseMax := fs.Int("dense-max", 500_000, "largest size also solved on the dense substrate (0 disables the baseline)")
	outPath := fs.String("out", "BENCH_coverage.json", "report path (- for stdout)")
	deadline := fs.Duration("deadline", 0, "fail if the whole run exceeds this wall time (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		return err
	}

	rep := Report{
		Bench:      "coverage-substrate",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		City:       strings.ToUpper(*city),
		Seed:       *seed,
		Lambda:     market.DefaultLambda,
		Restarts:   *restarts,
	}
	start := time.Now()
	for _, n := range sizes {
		r, err := benchOne(out, rep.City, n, *seed, *restarts, n <= *denseMax)
		if err != nil {
			return err
		}
		rep.Runs = append(rep.Runs, r)
		if *deadline > 0 && time.Since(start) > *deadline {
			return fmt.Errorf("deadline %v exceeded after the %d-trajectory rung", *deadline, n)
		}
	}

	var w io.Writer = out
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if *outPath != "-" {
		fmt.Fprintf(out, "wrote %s (%d runs)\n", *outPath, len(rep.Runs))
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -sizes entry %q", part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

func benchOne(out io.Writer, city string, trajectories int, seed uint64, restarts int, withDense bool) (Run, error) {
	var cfg dataset.Config
	switch city {
	case "NYC":
		cfg = dataset.PaperNYC(seed)
	case "SG":
		cfg = dataset.PaperSG(seed)
	default:
		return Run{}, fmt.Errorf("unknown city %q (want NYC or SG)", city)
	}
	cfg.Trajectories = trajectories

	fmt.Fprintf(out, "[%s |T|=%d] streaming build...\n", city, trajectories)
	t0 := time.Now()
	streamed, err := dataset.GenerateUniverse(cfg, dataset.StreamOptions{Lambda: market.DefaultLambda})
	if err != nil {
		return Run{}, err
	}
	buildMS := msSince(t0)
	// The streamed universe is already compressed; Compress returns it
	// unchanged with its statistics.
	compressed, stats := coverage.Compress(streamed.Universe)

	r := Run{
		Trajectories:      trajectories,
		BuildMS:           buildMS,
		Covered:           stats.Covered,
		Corridors:         stats.Corridors,
		Ratio:             stats.Ratio,
		DenseListBytes:    4 * compressed.TotalSupply(),
		CorridorListBytes: listBytes(compressed),
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.HeapBytes = ms.HeapAlloc
	fmt.Fprintf(out, "[%s |T|=%d] built in %.0fms, %d corridors (%.1fx), heap %.1f MiB\n",
		city, trajectories, buildMS, stats.Corridors, stats.Ratio, float64(r.HeapBytes)/(1<<20))

	solve := func(u *coverage.Universe) (float64, float64, int, error) {
		inst, err := catalog.Market(u, market.Config{Alpha: market.DefaultAlpha, P: market.DefaultP},
			market.DefaultGamma, rng.New(seed).Derive("market"))
		if err != nil {
			return 0, 0, 0, err
		}
		alg, err := core.AlgorithmByNameOpts("BLS", core.LocalSearchOptions{Seed: seed, Restarts: restarts})
		if err != nil {
			return 0, 0, 0, err
		}
		t := time.Now()
		plan := alg.Solve(inst)
		return msSince(t), plan.TotalRegret(), inst.NumAdvertisers(), nil
	}

	var regret float64
	r.CompressedSolveMS, regret, r.Advertisers, err = solve(compressed)
	if err != nil {
		return Run{}, err
	}
	r.CompressedRegret = regret
	fmt.Fprintf(out, "[%s |T|=%d] compressed BLS: %.0fms, regret %.1f (|A|=%d)\n",
		city, trajectories, r.CompressedSolveMS, regret, r.Advertisers)

	if withDense {
		d, err := dataset.Generate(cfg)
		if err != nil {
			return Run{}, err
		}
		dense, err := d.BuildUniverse(market.DefaultLambda)
		if err != nil {
			return Run{}, err
		}
		denseMS, denseRegret, _, err := solve(dense)
		if err != nil {
			return Run{}, err
		}
		r.DenseSolveMS, r.DenseRegret = denseMS, denseRegret
		match := denseRegret == regret
		r.RegretMatch = &match
		fmt.Fprintf(out, "[%s |T|=%d] dense BLS:      %.0fms, regret %.1f (match=%v)\n",
			city, trajectories, denseMS, denseRegret, match)
		if !match {
			return Run{}, fmt.Errorf("|T|=%d: dense regret %v != compressed %v", trajectories, denseRegret, regret)
		}
	}
	return r, nil
}

func listBytes(u *coverage.Universe) int64 {
	var entries int64
	for b := 0; b < u.NumBillboards(); b++ {
		entries += int64(len(u.List(b)))
	}
	return 4 * entries
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1e3
}
