// Package catalog is the instance-construction layer of the reproduction:
// a declarative, JSON-round-trippable Spec describing one MROAM instance,
// a single Build pipeline that turns a Spec into an immutable
// *core.Instance (replacing the build code previously copy-pasted across
// every CLI subcommand and the daemon), and a named registry of loaded
// instances with atomic hot-swap so a serving process can host many
// markets at once and reload any of them without perturbing in-flight
// solves.
//
// The three layers:
//
//	Spec                 what to build (city, scale, seed, λ, α, p, γ, or
//	                     a saved dataset directory)
//	Build(Spec)          the one spec → instance pipeline in the
//	                     repository: a source stage (streamed
//	                     GenerateUniverse, or Load → BuildUniverse →
//	                     Compress for a data directory), then an
//	                     instance stage (market, regret model)
//	Catalog              name → immutable Entry snapshots, lock-free reads,
//	                     atomic replace with a monotone generation counter;
//	                     Load shares one source among entries on the same
//	                     generated dataset and λ
package catalog

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strings"

	"repro/internal/market"
)

// Default knob values a Spec leaves unset; they mirror the bold entries of
// the paper's Table 6 plus the CLI's customary quarter-scale dataset.
const (
	// DefaultCity is assumed when a Spec names neither a city nor a saved
	// dataset directory.
	DefaultCity = "NYC"
	// DefaultScale is the dataset scale fraction applied when a Spec
	// leaves Scale unset.
	DefaultScale = 0.25
	// TierScale is the Spec.Tier value selecting paper-scale streaming
	// generation.
	TierScale = "scale"
)

// Spec declaratively describes one MROAM instance. The zero value of every
// field means "use the default", so a Spec round-trips through JSON without
// noise: marshalling a normalized Spec and unmarshalling it back yields an
// equivalent instance. γ is a pointer because 0 is a meaningful γ (the
// paper's Table 6 grid includes it); nil selects market.DefaultGamma.
type Spec struct {
	// Name is the catalog name of the instance. Optional for direct
	// Build calls; required (and unique) in an -instances fleet file.
	Name string `json:"name,omitempty"`
	// City is the synthetic dataset generator: "NYC" or "SG". Ignored
	// when Data is set. Empty selects DefaultCity.
	City string `json:"city,omitempty"`
	// Data is a saved dataset directory (written by `mroam gen`) to load
	// instead of generating; it overrides City/Scale.
	Data string `json:"data,omitempty"`
	// Scale is the fraction of the tier's base dataset scale. Zero selects
	// DefaultScale ("" tier) or 1.0 ("scale" tier).
	Scale float64 `json:"scale,omitempty"`
	// Tier selects the dataset size class. Empty is the default tier:
	// DefaultScale of the ~40-55k-trajectory synthetic defaults, small
	// enough that BuildDataset can materialize it for `mroam gen`.
	// TierScale selects the paper-scale configuration (Table 5: |T| = 1.7M
	// NYC / 2.2M SG), which only streaming generation can build — its
	// trajectories are never materialized, so Data cannot be combined with
	// it and `mroam gen` cannot save it. Scale then multiplies the
	// trajectory count only; the billboard inventory stays at the paper's
	// (1462 NYC / 4092 SG). Build streams both tiers.
	Tier string `json:"tier,omitempty"`
	// Seed drives dataset generation, market generation and (by CLI
	// convention) the solvers. Zero is a valid seed and is kept.
	Seed uint64 `json:"seed,omitempty"`
	// Alpha is the demand-supply ratio α; zero selects market.DefaultAlpha.
	Alpha float64 `json:"alpha,omitempty"`
	// P is the average-individual demand ratio p; zero selects
	// market.DefaultP.
	P float64 `json:"p,omitempty"`
	// Gamma is the unsatisfied penalty ratio γ; nil selects
	// market.DefaultGamma (0 is a legal value, hence the pointer).
	Gamma *float64 `json:"gamma,omitempty"`
	// Lambda is the influence radius λ in meters; zero selects
	// market.DefaultLambda.
	Lambda float64 `json:"lambda,omitempty"`
	// Model selects the regret model the built instance carries; nil (and
	// the absent JSON block) is the base MROAM model. See ModelSpec.
	Model *ModelSpec `json:"model,omitempty"`
}

// GammaPtr is a convenience for building Specs with an explicit γ.
func GammaPtr(g float64) *float64 { return &g }

// DefaultSpec returns a Spec with every defaultable field filled in: NYC at
// quarter scale, seed 42, and the paper's Table 6 default market knobs.
func DefaultSpec() Spec {
	return Spec{
		City:   DefaultCity,
		Scale:  DefaultScale,
		Seed:   42,
		Alpha:  market.DefaultAlpha,
		P:      market.DefaultP,
		Gamma:  GammaPtr(market.DefaultGamma),
		Lambda: market.DefaultLambda,
	}
}

// Normalized returns a copy with defaults filled in for every unset field.
// Build normalizes its input, so callers only need this to inspect the
// effective parameters (or to produce a canonical JSON form).
func (s Spec) Normalized() Spec {
	if s.City == "" && s.Data == "" {
		s.City = DefaultCity
	}
	if s.Scale <= 0 && s.Data == "" {
		if s.Tier == TierScale {
			s.Scale = 1.0
		} else {
			s.Scale = DefaultScale
		}
	}
	if s.Alpha == 0 {
		s.Alpha = market.DefaultAlpha
	}
	if s.P == 0 {
		s.P = market.DefaultP
	}
	if s.Gamma == nil {
		s.Gamma = GammaPtr(market.DefaultGamma)
	}
	if s.Lambda == 0 {
		s.Lambda = market.DefaultLambda
	}
	s.Model = s.normalizedModel()
	return s
}

// validName bounds catalog names to something safe in URLs, log lines and
// metric label values.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// ValidateName reports whether name is usable as a catalog instance name.
func ValidateName(name string) error {
	if !validName.MatchString(name) {
		return fmt.Errorf("catalog: invalid instance name %q (want 1-64 of [A-Za-z0-9._-], starting alphanumeric)", name)
	}
	return nil
}

// Validate reports whether the (normalized) Spec describes a buildable
// instance. It checks everything checkable without touching the filesystem;
// Data directories are only validated by Build actually loading them.
func (s Spec) Validate() error {
	// flag.Float64 parses "NaN" and "Inf" (JSON cannot carry them), and no
	// range check below rejects NaN, so finiteness is checked first, on
	// the fields as given: normalization would turn -Inf into a default.
	gamma := 0.0
	if s.Gamma != nil {
		gamma = *s.Gamma
	}
	if err := errors.Join(finite("scale", s.Scale), finite("alpha", s.Alpha),
		finite("p", s.P), finite("gamma", gamma), finite("lambda", s.Lambda)); err != nil {
		return err
	}
	s = s.Normalized()
	if s.Name != "" {
		if err := ValidateName(s.Name); err != nil {
			return err
		}
	}
	switch s.Tier {
	case "", TierScale:
	default:
		return fmt.Errorf("catalog: unknown tier %q (want empty or %q)", s.Tier, TierScale)
	}
	if s.Tier == TierScale && s.Data != "" {
		return fmt.Errorf("catalog: tier %q generates by streaming and cannot load -data directories", TierScale)
	}
	if s.Data == "" {
		switch strings.ToUpper(s.City) {
		case "NYC", "SG":
		default:
			return fmt.Errorf("catalog: unknown city %q (want NYC or SG)", s.City)
		}
		if s.Scale <= 0 {
			return fmt.Errorf("catalog: scale %v must be positive", s.Scale)
		}
	}
	if s.Alpha <= 0 {
		return fmt.Errorf("catalog: alpha %v must be positive", s.Alpha)
	}
	if s.P <= 0 || s.P > 1 {
		return fmt.Errorf("catalog: p %v must be in (0, 1]", s.P)
	}
	if *s.Gamma < 0 {
		return fmt.Errorf("catalog: gamma %v must be non-negative", *s.Gamma)
	}
	if s.Lambda <= 0 {
		return fmt.Errorf("catalog: lambda %v must be positive", s.Lambda)
	}
	return validateModel(s.Model)
}

// finite reports a NaN or infinite float knob.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("catalog: %s %v must be finite", name, v)
	}
	return nil
}
