package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchSmallLadder runs the harness at toy sizes with the dense
// baseline enabled: the report must decode, carry one run per size, show
// genuine compression, and the dense/compressed regrets must have matched
// (benchOne fails the run otherwise).
func TestBenchSmallLadder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var sb strings.Builder
	err := run([]string{"-sizes", "1500,3000", "-dense-max", "3000", "-out", path}, &sb)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("%d runs, want 2", len(rep.Runs))
	}
	if rep.NProc < 1 || rep.GOMAXPROCS < 1 {
		t.Errorf("host facts missing: nproc %d, gomaxprocs %d", rep.NProc, rep.GOMAXPROCS)
	}
	for _, r := range rep.Runs {
		if r.Corridors <= 0 || r.Corridors > r.Trajectories {
			t.Errorf("|T|=%d: corridors %d out of range", r.Trajectories, r.Corridors)
		}
		if r.Ratio < 1 {
			t.Errorf("|T|=%d: ratio %v < 1", r.Trajectories, r.Ratio)
		}
		if r.CorridorListBytes > r.DenseListBytes {
			t.Errorf("|T|=%d: corridor lists larger than dense (%d > %d)",
				r.Trajectories, r.CorridorListBytes, r.DenseListBytes)
		}
		if r.RegretMatch == nil || !*r.RegretMatch {
			t.Errorf("|T|=%d: dense baseline missing or mismatched", r.Trajectories)
		}
		if r.BuildMS <= 0 || r.CompressedSolveMS <= 0 {
			t.Errorf("|T|=%d: missing timings %+v", r.Trajectories, r)
		}
	}
}

func TestBenchBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-sizes", "0"}, &sb); err == nil {
		t.Error("size 0 accepted")
	}
	if err := run([]string{"-city", "Atlantis", "-sizes", "100", "-out", "-"}, &sb); err == nil {
		t.Error("unknown city accepted")
	}
}
