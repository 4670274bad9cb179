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
	"repro/internal/trajectory"
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
// mid-stream, and a single chunk larger than |T|.
func TestStreamedBuildMatchesMaterialized(t *testing.T) {
	const lambda = 100
	for _, cfg := range []Config{DefaultNYC(11).Scale(0.05), DefaultSG(12).Scale(0.05)} {
		t.Run(cfg.City.String(), func(t *testing.T) {
			d, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := d.BuildUniverse(lambda)
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats := coverage.Compress(raw)
			for _, chunk := range []int{1, 257, cfg.Trajectories + 1} {
				t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
					got, err := GenerateUniverse(cfg, StreamOptions{Lambda: lambda, ChunkSize: chunk})
					if err != nil {
						t.Fatal(err)
					}
					u := got.Universe
					if _, stats := coverage.Compress(u); stats != wantStats {
						t.Fatalf("compression stats %+v, want %+v", stats, wantStats)
					}
					if u.NumTrajectories() != want.NumTrajectories() || u.NumIDs() != want.NumIDs() ||
						u.NumBillboards() != want.NumBillboards() {
						t.Fatalf("dims %d/%d/%d, want %d/%d/%d", u.NumTrajectories(), u.NumIDs(), u.NumBillboards(),
							want.NumTrajectories(), want.NumIDs(), want.NumBillboards())
					}
					for id := int32(0); int(id) < want.NumIDs(); id++ {
						if u.Weight(id) != want.Weight(id) {
							t.Fatalf("corridor %d weight %d, want %d", id, u.Weight(id), want.Weight(id))
						}
					}
					for b := 0; b < want.NumBillboards(); b++ {
						if !slices.Equal(u.List(b), want.List(b)) || u.Degree(b) != want.Degree(b) {
							t.Fatalf("billboard %d: %d corridors (degree %d) streamed, %d (degree %d) materialized",
								b, len(u.List(b)), u.Degree(b), len(want.List(b)), want.Degree(b))
						}
					}
					if got.Billboards.Len() != d.Billboards.Len() {
						t.Fatalf("billboard counts differ")
					}
					for b := 0; b < d.Billboards.Len(); b++ {
						sb, mb := got.Billboards.At(b), d.Billboards.At(b)
						if sb.Loc != mb.Loc || sb.Cost != mb.Cost {
							t.Fatalf("billboard %d: streamed %+v/%d, materialized %+v/%d",
								b, sb.Loc, sb.Cost, mb.Loc, mb.Cost)
						}
					}
					if wantTraj := d.Trajectories.ComputeStats(); got.Stats != wantTraj {
						t.Fatalf("trajectory stats %+v, want %+v", got.Stats, wantTraj)
					}
					if got.Table5() != d.Table5() {
						t.Fatalf("Table5 %+v, want %+v", got.Table5(), d.Table5())
					}
				})
			}
		})
	}
}

// TestStreamingLeavesNoGoroutines checks that the generator and join
// goroutines have exited once a streamed build returns, both on success and
// when a generated trip fails validation mid-stream.
func TestStreamingLeavesNoGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	if _, err := GenerateUniverse(DefaultNYC(3).Scale(0.02), StreamOptions{Lambda: 100, ChunkSize: 100}); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, start)

	bdb := billboard.NewDB([]billboard.Billboard{{Loc: geo.Point{X: 1, Y: 1}}})
	drawn := 0
	nextTrip := func() trajectory.Trajectory {
		drawn++
		if drawn == 250 {
			return trajectory.Trajectory{} // no points: invalid
		}
		return trajectory.Trajectory{Points: []geo.Point{{X: 1, Y: 1}}}
	}
	if _, _, err := streamUniverse(1000, nextTrip, bdb, StreamOptions{Lambda: 100, ChunkSize: 100}); err == nil {
		t.Fatal("invalid trip accepted")
	}
	waitForGoroutines(t, start)
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
// 50k-trajectory slice of the paper's NYC configuration.
func BenchmarkGenerateUniverse(b *testing.B) {
	cfg := PaperNYC(42)
	cfg.Trajectories = 50_000
	for i := 0; i < b.N; i++ {
		s, err := GenerateUniverse(cfg, StreamOptions{Lambda: influence.DefaultLambda})
		if err != nil {
			b.Fatal(err)
		}
		streamedSink = s
	}
}
