package catalog

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
)

// fuzzPatchSeeds returns the FuzzPatchOps seed corpus: each op kind alone
// and mixed, out-of-range and repeated indices, a patch that would empty
// the market, unknown ops, and zero and extreme demands and payments.
func fuzzPatchSeeds() [][]byte {
	return [][]byte{
		[]byte(`[{"op":"add","demand":5,"payment":50}]`),
		[]byte(`[{"op":"remove","advertiser":1},{"op":"revise","advertiser":2,"demand":9},{"op":"add","demand":5,"payment":50}]`),
		[]byte(`[{"op":"revise","advertiser":0,"demand":3}]`),
		[]byte(`[{"op":"revise","advertiser":2,"demand":1,"payment":0.25}]`),
		[]byte(`[{"op":"remove","advertiser":3}]`),
		[]byte(`[{"op":"remove","advertiser":-1}]`),
		[]byte(`[{"op":"revise","advertiser":9223372036854775807,"demand":1}]`),
		[]byte(`[{"op":"remove","advertiser":0},{"op":"remove","advertiser":0}]`),
		[]byte(`[{"op":"remove","advertiser":0},{"op":"revise","advertiser":0,"demand":2}]`),
		[]byte(`[{"op":"remove","advertiser":0},{"op":"add","demand":4,"payment":7}]`),
		[]byte(`[{"op":"remove","advertiser":0},{"op":"remove","advertiser":1},{"op":"remove","advertiser":2}]`),
		[]byte(`[{"op":"remove","advertiser":0},{"op":"remove","advertiser":1},{"op":"remove","advertiser":2},{"op":"add","demand":1}]`),
		[]byte(`[{"op":"add","demand":0,"payment":1}]`),
		[]byte(`[{"op":"add","demand":1,"payment":0}]`),
		[]byte(`[{"op":"add","demand":1,"payment":-1}]`),
		[]byte(`[{"op":"revise","advertiser":1,"demand":-5}]`),
		[]byte(`[{"op":"add","demand":9223372036854775807,"payment":1.7976931348623157e308}]`),
		[]byte(`[{"op":"revise","advertiser":1,"demand":9223372036854775807,"payment":1e308},{"op":"add","demand":9223372036854775807,"payment":1e308}]`),
		[]byte(`[{"op":"rename","advertiser":0}]`),
		[]byte(`[{}]`),
		[]byte(`[]`),
		[]byte(`null`),
		[]byte(`[{"op":"add","demand":1e3}]`),
	}
}

// FuzzPatchOps asserts the PATCH contract under arbitrary op lists decoded
// from JSON: Catalog.Patch never panics; a rejected patch leaves the entry
// installed; an accepted one installs an instance whose advertisers are
// valid and line up with the returned PatchResult, and that the greedy can
// solve into a valid plan. The tiny market is zonal, so the patched
// instance must also carry the model over.
func FuzzPatchOps(f *testing.F) {
	for _, seed := range fuzzPatchSeeds() {
		f.Add(seed)
	}
	inst := patchInstance(f, 3)
	zoneOf := make([]int, inst.Universe().NumBillboards())
	for b := range zoneOf {
		zoneOf[b] = b % 2
	}
	m, err := core.NewZonalModel(zoneOf, 6)
	if err != nil {
		f.Fatal(err)
	}
	if inst, err = inst.WithModel(m); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []PatchOp
		if err := json.Unmarshal(data, &ops); err != nil {
			return
		}
		c := New()
		old, err := c.AddInstance("m", inst)
		if err != nil {
			t.Fatal(err)
		}
		e, res, err := c.Patch("m", ops)
		if err != nil {
			if got, _ := c.Get("m"); got != old {
				t.Fatalf("rejected patch (%v) replaced the entry", err)
			}
			return
		}
		if got, _ := c.Get("m"); got != e {
			t.Fatal("accepted patch not installed")
		}
		pi := e.Instance
		n := pi.NumAdvertisers()
		if n == 0 || e.Info.Advertisers != n || len(res.OldIndexOf) != n || len(res.Dirty) != n {
			t.Fatalf("%d advertisers, info %d, mapping %d/%d", n, e.Info.Advertisers, len(res.OldIndexOf), len(res.Dirty))
		}
		if pi.Model() != inst.Model() || pi.Universe() != inst.Universe() {
			t.Fatal("patch did not carry the model and universe over")
		}
		kept, prev := 0, -1
		for j := 0; j < n; j++ {
			a := pi.Advertiser(j)
			if a.Demand < 1 || !(a.Payment >= 0) {
				t.Fatalf("advertiser %d: demand %d payment %v", j, a.Demand, a.Payment)
			}
			o := res.OldIndexOf[j]
			if o == -1 {
				if !res.Dirty[j] {
					t.Fatalf("added advertiser %d not dirty", j)
				}
				continue
			}
			if o <= prev || o >= inst.NumAdvertisers() {
				t.Fatalf("advertiser %d maps to old index %d after %d", j, o, prev)
			}
			prev = o
			kept++
			if was := inst.Advertiser(o); !res.Dirty[j] && (a.Demand != was.Demand || a.Payment != was.Payment) {
				t.Fatalf("clean advertiser %d is %+v, was %+v", j, a, was)
			}
		}
		if kept+res.Removed != inst.NumAdvertisers() {
			t.Fatalf("kept %d + removed %d != %d", kept, res.Removed, inst.NumAdvertisers())
		}
		if err := core.GreedyOrder(pi).Validate(); err != nil {
			t.Fatalf("greedy plan on the patched instance: %v", err)
		}
	})
}
