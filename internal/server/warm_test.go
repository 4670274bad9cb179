package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
)

// doPatch issues PATCH /instances/{name}/advertisers and decodes the
// response into info when the status is 200.
func doPatch(tb testing.TB, ts *httptest.Server, name string, ops []catalog.PatchOp, info *InstanceInfo) int {
	tb.Helper()
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		tb.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPatch,
		ts.URL+"/instances/"+name+"/advertisers", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && info != nil {
		if err := json.NewDecoder(resp.Body).Decode(info); err != nil {
			tb.Fatal(err)
		}
	}
	return resp.StatusCode
}

// warmTestInstance is testInstance optionally wrapped in a zonal model, so
// the churn tests cover both the unconstrained base model and a constrained
// CanAssign in the incumbent replay.
func warmTestInstance(tb testing.TB, zonal bool) *core.Instance {
	tb.Helper()
	inst := testInstance(tb, 60, 10, 4)
	if !zonal {
		return inst
	}
	zoneOf := make([]int, inst.Universe().NumBillboards())
	for b := range zoneOf {
		zoneOf[b] = b % 3
	}
	zm, err := core.NewZonalModel(zoneOf, int64(inst.Universe().TotalSupply()))
	if err != nil {
		tb.Fatal(err)
	}
	zinst, err := inst.WithModel(zm)
	if err != nil {
		tb.Fatal(err)
	}
	return zinst
}

// churnDays is the replayed op sequence both sides of the determinism test
// apply: every op kind appears, including a removal (which frees supply).
var churnDays = [][]catalog.PatchOp{
	{{Op: "add", Demand: 35, Payment: 35}},
	{{Op: "remove", Advertiser: 1}, {Op: "revise", Advertiser: 0, Demand: 28}},
	{{Op: "revise", Advertiser: 2, Demand: 31, Payment: 44}, {Op: "add", Demand: 22, Payment: 20}},
}

// TestWarmStartChurnReplayMatchesColdSolve is the acceptance check for the
// delta-solve path: a market driven through a PATCH + warm-start solve per
// churn day must end on the bit-identical plan a cold solve of the final
// market produces — for one and for four search workers, under both the
// base and the zonal model.
func TestWarmStartChurnReplayMatchesColdSolve(t *testing.T) {
	const seed, restarts = 5, 4
	for _, zonal := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("zonal=%v/workers=%d", zonal, workers)
			solveReq := SolveRequest{
				Instance:           "m",
				Algorithm:          "BLS",
				Seed:               seed,
				Restarts:           restarts,
				SearchWorkers:      workers,
				IncludeAssignments: true,
			}

			// Churn side: cold solve, then PATCH + warm solve per day.
			catA := catalog.New()
			if _, err := catA.AddInstance("m", warmTestInstance(t, zonal)); err != nil {
				t.Fatal(err)
			}
			srvA, err := New(Config{Catalog: catA, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			tsA := httptest.NewServer(srvA.Handler())

			status, warm, errResp := postSolve(t, tsA.Client(), tsA.URL, solveReq)
			if status != http.StatusOK {
				t.Fatalf("%s: cold seed solve: %d %s", name, status, errResp.Error)
			}
			warmReq := solveReq
			warmReq.WarmStart = true
			for day, ops := range churnDays {
				if st := doPatch(t, tsA, "m", ops, nil); st != http.StatusOK {
					t.Fatalf("%s: day %d patch: status %d", name, day, st)
				}
				status, warm, errResp = postSolve(t, tsA.Client(), tsA.URL, warmReq)
				if status != http.StatusOK {
					t.Fatalf("%s: day %d warm solve: %d %s", name, day, status, errResp.Error)
				}
				if !warm.WarmStarted {
					t.Fatalf("%s: day %d solve ran cold despite an incumbent", name, day)
				}
			}
			tsA.Close()

			// Cold side: the same ops applied to a fresh catalog, one cold
			// solve of the final market.
			catB := catalog.New()
			if _, err := catB.AddInstance("m", warmTestInstance(t, zonal)); err != nil {
				t.Fatal(err)
			}
			for day, ops := range churnDays {
				if _, _, err := catB.Patch("m", ops); err != nil {
					t.Fatalf("%s: day %d direct patch: %v", name, day, err)
				}
			}
			srvB, err := New(Config{Catalog: catB, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			tsB := httptest.NewServer(srvB.Handler())
			status, cold, errResp := postSolve(t, tsB.Client(), tsB.URL, solveReq)
			tsB.Close()
			if status != http.StatusOK {
				t.Fatalf("%s: cold final solve: %d %s", name, status, errResp.Error)
			}

			if warm.TotalRegret != cold.TotalRegret {
				t.Fatalf("%s: warm regret %v != cold regret %v", name, warm.TotalRegret, cold.TotalRegret)
			}
			if !reflect.DeepEqual(warm.Assignments, cold.Assignments) {
				t.Fatalf("%s: warm plan diverged from cold plan\nwarm: %v\ncold: %v",
					name, warm.Assignments, cold.Assignments)
			}
			if cold.WarmStarted || cold.FrozenAdvertisers != 0 {
				t.Fatalf("%s: cold response claims warm start", name)
			}
		}
	}
}

// TestSolveCachePatchInvalidation pins the cacheability contract around
// PATCH: a patch bumps the generation so the identical request misses, and
// warm-started results are neither served from nor stored into the plain
// solve cache.
func TestSolveCachePatchInvalidation(t *testing.T) {
	cat := catalog.New()
	if _, err := cat.AddInstance("m", warmTestInstance(t, false)); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Catalog: cat, Workers: 2, CacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SolveRequest{Instance: "m", Algorithm: "BLS", Seed: 3, Restarts: 2}
	solve := func(r SolveRequest) SolveResponse {
		t.Helper()
		status, resp, errResp := postSolve(t, ts.Client(), ts.URL, r)
		if status != http.StatusOK {
			t.Fatalf("solve: %d %s", status, errResp.Error)
		}
		return resp
	}

	first := solve(req)
	if first.Cached {
		t.Fatal("first solve served from cache")
	}
	if again := solve(req); !again.Cached {
		t.Fatal("identical request missed the cache")
	}

	var info InstanceInfo
	if st := doPatch(t, ts, "m", []catalog.PatchOp{{Op: "add", Demand: 20, Payment: 20}}, &info); st != http.StatusOK {
		t.Fatalf("patch status %d", st)
	}
	if info.Generation <= first.Generation {
		t.Fatalf("patch did not bump generation: %d -> %d", first.Generation, info.Generation)
	}

	afterPatch := solve(req)
	if afterPatch.Cached {
		t.Fatal("post-patch request hit a stale cache entry")
	}
	if afterPatch.Generation != info.Generation {
		t.Fatalf("post-patch solve ran generation %d, want %d", afterPatch.Generation, info.Generation)
	}

	// Warm solves bypass the cache in both directions.
	warmReq := req
	warmReq.WarmStart = true
	w1 := solve(warmReq)
	if !w1.WarmStarted {
		t.Fatal("warm solve ran cold despite a remapped incumbent")
	}
	if w1.Cached {
		t.Fatal("warm-started solve served from the plain cache")
	}
	if w2 := solve(warmReq); w2.Cached {
		t.Fatal("repeated warm-started solve served from the plain cache")
	}

	// The plain request still hits the entry its own computed solve stored —
	// warm results never aliased it.
	if plain := solve(req); !plain.Cached || plain.WarmStarted {
		t.Fatalf("plain request after warm solves: cached=%v warm=%v, want cached, not warm",
			plain.Cached, plain.WarmStarted)
	}

	// After another patch, only warm solves run; the next plain request must
	// MISS — if the warm result had been stored under the plain key this
	// would be a hit.
	if st := doPatch(t, ts, "m", []catalog.PatchOp{{Op: "revise", Advertiser: 0, Demand: 25}}, nil); st != http.StatusOK {
		t.Fatalf("second patch status %d", st)
	}
	if w := solve(warmReq); !w.WarmStarted || w.Cached {
		t.Fatalf("warm solve after second patch: warm=%v cached=%v", w.WarmStarted, w.Cached)
	}
	if plain := solve(req); plain.Cached {
		t.Fatal("warm-started result leaked into the plain solve cache")
	}
}

// TestPatchAPIErrors pins the endpoint's error mapping: 404 for unknown
// names, 409 for stale advertiser indexes, 400 for malformed ops.
func TestPatchAPIErrors(t *testing.T) {
	cat := catalog.New()
	if _, err := cat.AddInstance("m", warmTestInstance(t, false)); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Catalog: cat, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if st := doPatch(t, ts, "ghost", []catalog.PatchOp{{Op: "add", Demand: 1, Payment: 1}}, nil); st != http.StatusNotFound {
		t.Fatalf("unknown instance: status %d, want 404", st)
	}
	if st := doPatch(t, ts, "m", []catalog.PatchOp{{Op: "remove", Advertiser: 99}}, nil); st != http.StatusConflict {
		t.Fatalf("stale advertiser index: status %d, want 409", st)
	}
	if st := doPatch(t, ts, "m", []catalog.PatchOp{{Op: "upsert"}}, nil); st != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d, want 400", st)
	}
	if st := doPatch(t, ts, "m", nil, nil); st != http.StatusBadRequest {
		t.Fatalf("empty ops: status %d, want 400", st)
	}
}

// TestWarmStartWithoutIncumbentRunsCold: a warm_start request before any
// solve has completed (or after a reload dropped the incumbents) must run
// cold and say so, not fail.
func TestWarmStartWithoutIncumbentRunsCold(t *testing.T) {
	cat := catalog.New()
	if _, err := cat.AddInstance("m", warmTestInstance(t, false)); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Catalog: cat, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SolveRequest{Instance: "m", Algorithm: "BLS", Seed: 1, Restarts: 2, WarmStart: true}
	status, resp, errResp := postSolve(t, ts.Client(), ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("warm solve without incumbent: %d %s", status, errResp.Error)
	}
	if resp.WarmStarted {
		t.Fatal("solve claims a warm start with no incumbent stored")
	}
}
