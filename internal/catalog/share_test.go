package catalog

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// planPrint solves inst with the four paper solvers and renders every
// plan's regret and sets, so two instances that solve bit-identically
// print the same string.
func planPrint(t *testing.T, inst *core.Instance) string {
	t.Helper()
	var b strings.Builder
	for _, name := range []string{"G-Order", "G-Global", "ALS", "BLS"} {
		alg, err := core.AlgorithmByNameOpts(name, core.LocalSearchOptions{Seed: 3, Restarts: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		p := alg.Solve(inst)
		fmt.Fprintf(&b, "%s regret=%s\n", name, strconv.FormatFloat(p.TotalRegret(), 'g', -1, 64))
		for i := 0; i < inst.NumAdvertisers(); i++ {
			fmt.Fprintf(&b, "  adv %d: %v\n", i, p.Set(i, nil))
		}
	}
	return b.String()
}

// matchesFreshBuild fails unless e's BuildInfo (build time aside) and its
// four solvers' plans equal those of a fresh Build of its spec.
func matchesFreshBuild(t *testing.T, e *Entry) {
	t.Helper()
	inst, info, err := Build(e.Spec)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Info
	got.BuildMS, info.BuildMS = 0, 0
	if got != info {
		t.Errorf("%s: info %+v, fresh build %+v", e.Name, got, info)
	}
	if g, w := planPrint(t, e.Instance), planPrint(t, inst); g != w {
		t.Errorf("%s: plans differ from a fresh build:\ngot:\n%s\nwant:\n%s", e.Name, g, w)
	}
}

// TestLoadSharesGeneratedSources is the sharing contract of Catalog.Load:
// entries on the same generated dataset and λ share one universe, however
// the city is spelled and whatever their market or model; a different λ,
// a different seed or a Data directory builds its own. Every entry solves
// exactly like a fresh Build of its spec, and a derived entry outlives the
// entry it shared from, whether that is replaced or deleted.
func TestLoadSharesGeneratedSources(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nyc")
	d, err := BuildDataset(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}

	c := New()
	base := tinySpec()
	zonal := base
	zonal.City = "nyc"
	zonal.Alpha = 1.5
	zonal.Model = &ModelSpec{Kind: "zonal", ZoneCap: 10}
	lambda := base
	lambda.Lambda = 50
	seed := base
	seed.Seed = 6
	data := Spec{Data: dir, Alpha: 2.0, P: 0.1}
	fleet := []struct {
		name string
		spec Spec
	}{
		{"lambda", lambda}, // first: the default, which cannot be deleted
		{"base", base},
		{"zonal", zonal},
		{"seed", seed},
		{"data", data},
		{"data2", data},
	}
	entries := map[string]*Entry{}
	for _, f := range fleet {
		e, err := c.Load(f.name, f.spec)
		if err != nil {
			t.Fatal(err)
		}
		entries[f.name] = e
	}

	if got := entries["zonal"].UniverseOrigin(); got != "shared:base" {
		t.Errorf("zonal universe origin %q, want shared:base", got)
	}
	if entries["zonal"].Instance.Universe() != entries["base"].Instance.Universe() {
		t.Error("base and zonal do not share one universe")
	}
	for _, name := range []string{"lambda", "base", "seed", "data", "data2"} {
		if got := entries[name].UniverseOrigin(); got != "built" {
			t.Errorf("%s universe origin %q, want built", name, got)
		}
		for _, other := range []string{"lambda", "base", "seed", "data", "data2"} {
			if other != name && entries[name].Instance.Universe() == entries[other].Instance.Universe() {
				t.Errorf("%s and %s share a universe", name, other)
			}
		}
	}
	zonalPlans := planPrint(t, entries["zonal"].Instance)
	for _, f := range fleet {
		matchesFreshBuild(t, entries[f.name])
	}

	// Replacing, then deleting, the source entry leaves the derived one
	// as it was.
	if _, err := c.Load("base", seed); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("base"); err != nil {
		t.Fatal(err)
	}
	if e, ok := c.Get("zonal"); !ok || e != entries["zonal"] {
		t.Fatal("zonal entry changed when its source entry went away")
	}
	if got := planPrint(t, entries["zonal"].Instance); got != zonalPlans {
		t.Errorf("zonal plans changed after its source entry went away:\ngot:\n%s\nwant:\n%s", got, zonalPlans)
	}

	// A patched entry carries its source, so a later load still shares.
	patched, _, err := c.Patch("zonal", []PatchOp{{Op: "add", Demand: 30, Payment: 30}})
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Load("again", base)
	if err != nil {
		t.Fatal(err)
	}
	if again.UniverseOrigin() != "shared:zonal" || again.Instance.Universe() != patched.Instance.Universe() {
		t.Errorf("load after patch: origin %q, shares universe %v; want shared:zonal",
			again.UniverseOrigin(), again.Instance.Universe() == patched.Instance.Universe())
	}
	matchesFreshBuild(t, again)
}

// TestSharedSourceConcurrentLoadsAndSolves loads markets on one generated
// dataset from several goroutines while each solves the entry it loaded:
// entries that share a universe must be safe to build and solve at once
// (run under -race), and each must still solve like a fresh Build.
func TestSharedSourceConcurrentLoadsAndSolves(t *testing.T) {
	c := New()
	if _, err := c.Load("seed", tinySpec()); err != nil {
		t.Fatal(err)
	}
	const n = 4
	entries := make([]*Entry, n)
	var wg sync.WaitGroup
	for i := range entries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := tinySpec()
			spec.Alpha = 1 + 0.25*float64(i)
			e, err := c.Load(fmt.Sprintf("m%d", i), spec)
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
			alg := core.BLSAlgorithm{Opts: core.LocalSearchOptions{Seed: 3, Restarts: 2, Workers: 2}}
			alg.Solve(e.Instance)
		}()
	}
	wg.Wait()
	seed, _ := c.Get("seed")
	for _, e := range entries {
		if e == nil {
			t.FailNow()
		}
		if e.Instance.Universe() != seed.Instance.Universe() {
			t.Errorf("%s: %s, want the seed entry's universe", e.Name, e.UniverseOrigin())
		}
		matchesFreshBuild(t, e)
	}
}
