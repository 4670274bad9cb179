package catalog

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/billboard"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/dataset"
	"repro/internal/market"
	"repro/internal/rng"
)

// BuildInfo summarizes what Build produced — the dimensions a server
// reports per instance and the CLI prints in its solve banner.
type BuildInfo struct {
	// City is the dataset's city name ("NYC" or "SG"), including for
	// datasets loaded from a directory.
	City string `json:"city"`
	// Trajectories is |T|, Billboards |U|, Advertisers |A|.
	Trajectories int `json:"trajectories"`
	Billboards   int `json:"billboards"`
	Advertisers  int `json:"advertisers"`
	// Corridors is the compressed coverage ID space: the number of
	// distinct coverage signatures the trajectories collapse into.
	Corridors int `json:"corridors"`
	// CompressionRatio is Trajectories / Corridors.
	CompressionRatio float64 `json:"compression_ratio"`
	// Model is the regret-model kind the instance carries ("base" or
	// "zonal"), echoed through /instances, healthz and the CLI banners.
	Model string `json:"model"`
	// Zones and ZoneCap describe the zonal partition: the number of
	// occupied geo-grid zones and the per-zone influence cap. Zero for the
	// base model.
	Zones   int   `json:"zones,omitempty"`
	ZoneCap int64 `json:"zone_cap,omitempty"`
	// BuildMS is the wall-clock build time in milliseconds.
	BuildMS float64 `json:"build_ms"`
}

// BuildDataset loads (Spec.Data) or generates (Spec.City at Spec.Scale) the
// dataset a Spec names, trajectories and all. This is the repository's
// single call site of dataset.Load/dataset.Generate outside tests: the
// callers that need raw trajectories (mroam gen and sim, the experiment
// harness) route through it, and Build uses it for Data directories only.
// Build never materializes a generated dataset: it streams every generated
// spec, on either tier, straight into a corridor-compressed universe.
// Paper-scale ("scale" tier) datasets are too large to materialize at all,
// so this rejects that tier.
func BuildDataset(s Spec) (*dataset.Dataset, error) {
	if s.Tier == TierScale {
		return nil, fmt.Errorf("catalog: tier %q datasets are streamed, not materialized; only Build can construct them", TierScale)
	}
	if s.Data != "" {
		return dataset.Load(s.Data)
	}
	cfg, err := datasetConfig(s)
	if err != nil {
		return nil, err
	}
	return dataset.Generate(cfg)
}

// datasetConfig resolves the generator configuration a (normalized) Spec
// names: the city defaults scaled by Spec.Scale on the default tier, the
// paper-scale configuration with Scale applied to the trajectory count only
// on the "scale" tier (the billboard inventory is part of the paper's
// Table 5 and does not shrink).
func datasetConfig(s Spec) (dataset.Config, error) {
	var cfg dataset.Config
	switch strings.ToUpper(s.City) {
	case "", "NYC":
		if s.Tier == TierScale {
			cfg = dataset.PaperNYC(s.Seed)
		} else {
			cfg = dataset.DefaultNYC(s.Seed)
		}
	case "SG":
		if s.Tier == TierScale {
			cfg = dataset.PaperSG(s.Seed)
		} else {
			cfg = dataset.DefaultSG(s.Seed)
		}
	default:
		return dataset.Config{}, fmt.Errorf("catalog: unknown city %q (want NYC or SG)", s.City)
	}
	if s.Tier == TierScale {
		cfg.Trajectories = int(float64(cfg.Trajectories) * s.Scale)
		if cfg.Trajectories < 1 {
			cfg.Trajectories = 1
		}
		return cfg, nil
	}
	return cfg.Scale(s.Scale), nil
}

// Market generates the advertiser set for the universe and wraps it into an
// instance — the repository's single call site of market.NewInstance
// outside tests. It exists separately from Build for callers (the
// experiment harness) that cache universes and derive their own market RNG
// streams.
func Market(u *coverage.Universe, cfg market.Config, gamma float64, r *rng.RNG) (*core.Instance, error) {
	return market.NewInstance(u, cfg, gamma, r)
}

// source is the dataset half of a build: everything that depends only on
// the dataset and λ — the corridor-compressed universe, the billboard
// inventory with its costs, and the dimensions BuildInfo reports of them.
// It is immutable once built, so any number of instances can share one;
// Catalog.Load reuses a live entry's source when the keys match.
type source struct {
	// key identifies a generated source; it is nil for a Data directory,
	// which can change on disk between loads and so is never shared.
	key      *sourceKey
	universe *coverage.Universe
	bills    *billboard.DB
	city     string
	stats    coverage.CompressionStats
}

// sourceKey is what a generated source depends on: the resolved generator
// configuration (so "nyc" and "NYC", or a default and an explicit scale,
// meet) and the influence radius.
type sourceKey struct {
	cfg    dataset.Config
	lambda float64
}

// buildSource runs the source stage for a normalized, valid Spec. Generated
// specs, on either tier, stream through dataset.GenerateUniverse, which is
// bit-identical to compressing the materialized Generate + BuildUniverse
// pipeline (dataset.TestStreamedBuildMatchesMaterialized) at a fraction of
// its peak memory. Data directories are loaded, joined and compressed.
func buildSource(s Spec) (*source, error) {
	if s.Data != "" {
		d, err := BuildDataset(s)
		if err != nil {
			return nil, err
		}
		raw, err := d.BuildUniverse(s.Lambda)
		if err != nil {
			return nil, err
		}
		u, stats := coverage.Compress(raw)
		return &source{universe: u, bills: d.Billboards, city: d.Config.City.String(), stats: stats}, nil
	}
	cfg, err := datasetConfig(s)
	if err != nil {
		return nil, err
	}
	streamed, err := dataset.GenerateUniverse(cfg, dataset.StreamOptions{Lambda: s.Lambda})
	if err != nil {
		return nil, err
	}
	u, stats := coverage.Compress(streamed.Universe) // already compressed: stats only
	return &source{
		key:      &sourceKey{cfg: cfg, lambda: s.Lambda},
		universe: u,
		bills:    streamed.Billboards,
		city:     cfg.City.String(),
		stats:    stats,
	}, nil
}

// buildInstance runs the instance stage on a source: the advertiser market
// at (α, p, γ, seed), then the regret model. start is when the whole build
// began, so BuildMS covers whatever part of the source stage ran for it.
func buildInstance(s Spec, src *source, start time.Time) (*core.Instance, BuildInfo, error) {
	u := src.universe
	inst, err := Market(u, market.Config{Alpha: s.Alpha, P: s.P}, *s.Gamma,
		rng.New(s.Seed).Derive("market"))
	if err != nil {
		return nil, BuildInfo{}, err
	}
	info := BuildInfo{
		City:             src.city,
		Trajectories:     u.NumTrajectories(),
		Billboards:       u.NumBillboards(),
		Advertisers:      inst.NumAdvertisers(),
		Corridors:        src.stats.Corridors,
		CompressionRatio: src.stats.Ratio,
		Model:            core.ModelBase,
	}
	// Corridor compression rewrites trajectory IDs but never billboard
	// IDs, so the billboard DB's geometry indexes the compressed universe
	// directly — zones are derived from real billboard locations.
	if s.ModelKind() == core.ModelZonal {
		zoneOf, zones := ZonePartition(src.bills.Locations(), s.Model.ZoneMeters)
		zm, err := core.NewZonalModel(zoneOf, s.Model.ZoneCap)
		if err != nil {
			return nil, BuildInfo{}, err
		}
		inst, err = inst.WithModel(zm)
		if err != nil {
			return nil, BuildInfo{}, err
		}
		info.Model, info.Zones, info.ZoneCap = core.ModelZonal, zones, s.Model.ZoneCap
	}
	info.BuildMS = float64(time.Since(start).Microseconds()) / 1e3
	return inst, info, nil
}

// Build runs the full pipeline for one Spec in two stages. The source
// stage makes the corridor-compressed coverage universe at λ and the
// billboard inventory: generated specs, on either tier, stream straight
// from the generator into corridors (dataset.GenerateUniverse) and never
// materialize a trajectory; Data directories are loaded, joined and
// compressed. The instance stage generates the advertiser market at
// (α, p, γ) and attaches the regret model. The returned instance is
// immutable and safe for any number of concurrent solves; equal Specs
// build instances on which the solvers return bit-identical plans.
//
// Every instance is served on the corridor-compressed substrate. This is
// invisible to callers — all influence quantities are expressed in raw
// trajectories, and compression preserves them exactly (see
// coverage.Compress) — but per-advertiser state shrinks from |T| to the
// corridor count, which is what makes paper-scale instances solvable
// in memory.
func Build(s Spec) (*core.Instance, BuildInfo, error) {
	start := time.Now()
	if err := s.Validate(); err != nil {
		return nil, BuildInfo{}, err
	}
	s = s.Normalized()
	src, err := buildSource(s)
	if err != nil {
		return nil, BuildInfo{}, err
	}
	return buildInstance(s, src, start)
}
