package dataset

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/billboard"
	"repro/internal/coverage"
	"repro/internal/geo"
	"repro/internal/influence"
)

// TestStreamedBuildMatchesMaterialized is the streaming path's correctness
// anchor: for both cities, GenerateUniverse must produce bit for bit the
// corridor-compressed universe that coverage.Compress makes of the
// materializing Generate + BuildUniverse pipeline — lists, weights, Degree
// and compression statistics — together with the same billboard inventory
// (locations and costs) and the same Table-5 statistics. The streamed build
// never holds raw coverage lists, so the compressed universe is what the
// two paths share; plan identity between raw and compressed substrates is
// pinned separately by TestSolversInvariantUnderCompression. Chunk sizes
// cover one trip per chunk, an odd size that puts chunk boundaries
// mid-stream, and a single chunk larger than |T|; each runs on one, two and
// three join workers, so the universe must not depend on the worker count.
// Every generated catalog.Build streams, so the equivalence is checked at
// radii from one that leaves NYC's universe empty (5 m) to twice the
// default.
func TestStreamedBuildMatchesMaterialized(t *testing.T) {
	lambdas := []float64{5, 50, 100, 200}
	for _, cfg := range []Config{DefaultNYC(11).Scale(0.05), DefaultSG(12).Scale(0.05)} {
		t.Run(cfg.City.String(), func(t *testing.T) {
			d, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// BuildUniverse assigns costs from the degrees at its λ, so
			// the inventory to match is snapshotted per radius.
			type materialized struct {
				u     *coverage.Universe
				stats coverage.CompressionStats
				bills []billboard.Billboard
			}
			want := make([]materialized, len(lambdas))
			for i, lambda := range lambdas {
				raw, err := d.BuildUniverse(lambda)
				if err != nil {
					t.Fatal(err)
				}
				want[i].u, want[i].stats = coverage.Compress(raw)
				for b := 0; b < d.Billboards.Len(); b++ {
					want[i].bills = append(want[i].bills, *d.Billboards.At(b))
				}
			}
			for _, chunk := range []int{1, 257, cfg.Trajectories + 1} {
				t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
					for _, workers := range []int{1, 2, 3} {
						t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
							for i, lambda := range lambdas {
								got, err := GenerateUniverse(cfg, StreamOptions{Lambda: lambda, ChunkSize: chunk, Parallelism: workers})
								if err != nil {
									t.Fatal(err)
								}
								if err := sameBuild(got, d, want[i].u, want[i].stats, want[i].bills); err != nil {
									t.Fatalf("λ=%v: %v", lambda, err)
								}
							}
						})
					}
				})
			}
		})
	}
}

// sameBuild reports the first difference between a streamed build and the
// materialized dataset d whose compressed universe at the same λ is want,
// with compression statistics wantStats and billboard inventory bills.
func sameBuild(got *Streamed, d *Dataset, want *coverage.Universe, wantStats coverage.CompressionStats, bills []billboard.Billboard) error {
	u := got.Universe
	if _, stats := coverage.Compress(u); stats != wantStats {
		return fmt.Errorf("compression stats %+v, want %+v", stats, wantStats)
	}
	if u.NumTrajectories() != want.NumTrajectories() || u.NumIDs() != want.NumIDs() ||
		u.NumBillboards() != want.NumBillboards() {
		return fmt.Errorf("dims %d/%d/%d, want %d/%d/%d", u.NumTrajectories(), u.NumIDs(), u.NumBillboards(),
			want.NumTrajectories(), want.NumIDs(), want.NumBillboards())
	}
	for id := int32(0); int(id) < want.NumIDs(); id++ {
		if u.Weight(id) != want.Weight(id) {
			return fmt.Errorf("corridor %d weight %d, want %d", id, u.Weight(id), want.Weight(id))
		}
	}
	for b := 0; b < want.NumBillboards(); b++ {
		if !slices.Equal(u.List(b), want.List(b)) || u.Degree(b) != want.Degree(b) {
			return fmt.Errorf("billboard %d: %d corridors (degree %d) streamed, %d (degree %d) materialized",
				b, len(u.List(b)), u.Degree(b), len(want.List(b)), want.Degree(b))
		}
	}
	if got.Billboards.Len() != len(bills) {
		return fmt.Errorf("billboard counts differ")
	}
	for b, mb := range bills {
		if sb := got.Billboards.At(b); sb.Loc != mb.Loc || sb.Cost != mb.Cost {
			return fmt.Errorf("billboard %d: streamed %+v/%d, materialized %+v/%d", b, sb.Loc, sb.Cost, mb.Loc, mb.Cost)
		}
	}
	if wantTraj := d.Trajectories.ComputeStats(); got.Stats != wantTraj {
		return fmt.Errorf("trajectory stats %+v, want %+v", got.Stats, wantTraj)
	}
	if got.Table5() != d.Table5() {
		return fmt.Errorf("Table5 %+v, want %+v", got.Table5(), d.Table5())
	}
	return nil
}

// TestStreamingLeavesNoGoroutines checks that the drawing, layout and join
// goroutines have exited once a streamed build returns, both on success and
// when a trip fails validation mid-stream, and that the failure is the
// first invalid trip's, as trajectory.Validate reports it. With three
// workers and small chunks, the bad chunk is laid out while later chunks
// are in flight, and chunks after it hold invalid trips too.
func TestStreamingLeavesNoGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	if _, err := GenerateUniverse(DefaultNYC(3).Scale(0.02), StreamOptions{Lambda: 100, ChunkSize: 100}); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, start)

	bdb := billboard.NewDB([]billboard.Billboard{{Loc: geo.Point{X: 1, Y: 1}}})
	good := tripPlan{stops: []geo.Point{{X: 1, Y: 1}, {X: 2, Y: 1}}, speed: 1}
	noPoints := tripPlan{stops: []geo.Point{}, speed: 1}
	// A negative speed makes offsets decrease from the first point on.
	backwards := tripPlan{stops: []geo.Point{{X: 1, Y: 1}, {X: 2, Y: 1}}, speed: -1}
	for _, tc := range []struct {
		name    string
		opts    StreamOptions
		bad     map[int]tripPlan // by trip ID
		wantErr string
	}{
		{"no points", StreamOptions{Lambda: 100, ChunkSize: 100}, map[int]tripPlan{249: noPoints},
			"trajectory 249: no points"},
		{"parallel", StreamOptions{Lambda: 100, ChunkSize: 10, Parallelism: 3},
			map[int]tripPlan{37: backwards, 38: noPoints, 45: noPoints, 52: noPoints},
			"trajectory 37: offsets decrease at index 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := runtime.NumGoroutine()
			drawn := 0
			draw := func() tripPlan {
				p, ok := tc.bad[drawn]
				if !ok {
					p = good
				}
				drawn++
				return p
			}
			_, _, err := streamUniverse(1000, draw, bdb, tc.opts)
			if err == nil || err.Error() != tc.wantErr {
				t.Fatalf("error %v, want %q", err, tc.wantErr)
			}
			waitForGoroutines(t, start)
		})
	}
}

// waitForGoroutines fails the test unless the goroutine count falls back to
// want within a few seconds; a goroutine that has signalled completion may
// take a moment to be reaped.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, %d at start", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGenerateUniverseValidation(t *testing.T) {
	if _, err := GenerateUniverse(Config{}, StreamOptions{Lambda: 100}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := GenerateUniverse(DefaultNYC(1).Scale(0.01), StreamOptions{}); err == nil {
		t.Error("zero lambda accepted")
	}
}

func TestPaperConfigsMatchTable5Dimensions(t *testing.T) {
	nyc := PaperNYC(42)
	if nyc.Trajectories != 1_700_000 || nyc.Billboards != 1462 {
		t.Fatalf("PaperNYC dims %d/%d", nyc.Trajectories, nyc.Billboards)
	}
	if err := nyc.Validate(); err != nil {
		t.Fatal(err)
	}
	sg := PaperSG(42)
	if sg.Trajectories != 2_200_000 || sg.Routes*sg.StopsPerRoute != 4092 {
		t.Fatalf("PaperSG dims %d/%d", sg.Trajectories, sg.Routes*sg.StopsPerRoute)
	}
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
}

var streamedSink *Streamed

// BenchmarkGenerateUniverse measures the fused streaming build — trip
// generation, the chunked spatial join and corridor assignment — on a
// 50k-trajectory slice of the paper's NYC configuration, and on the default
// NYC tier, the build mroamd runs for each generated fleet entry.
func BenchmarkGenerateUniverse(b *testing.B) {
	paper := PaperNYC(42)
	paper.Trajectories = 50_000
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"paper-50k", paper},
		{"default", DefaultNYC(42)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := GenerateUniverse(bc.cfg, StreamOptions{Lambda: influence.DefaultLambda})
				if err != nil {
					b.Fatal(err)
				}
				streamedSink = s
			}
		})
	}
}
