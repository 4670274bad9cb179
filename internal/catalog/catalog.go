package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// ErrNotFound reports a name with no loaded instance (servers map it to
// 404).
var ErrNotFound = errors.New("catalog: instance not found")

// ErrDefaultDelete reports an attempt to delete the default instance
// (servers map it to 409): a catalog that serves traffic must always be
// able to answer a request that names no instance.
var ErrDefaultDelete = errors.New("catalog: cannot delete the default instance")

// Entry is one immutable loaded instance: the snapshot a solve runs
// against. Reloading a name installs a brand-new Entry; existing solves
// keep the Entry they resolved and are unaffected (the old snapshot is
// garbage-collected when the last solve holding it finishes).
type Entry struct {
	// Name is the catalog name the entry is registered under.
	Name string
	// Generation is a catalog-wide monotone counter stamped when the
	// entry was installed; a reload of the same name always carries a
	// strictly larger generation, so a response reporting (name,
	// generation) identifies exactly one build. The solve-result cache
	// (internal/solvecache) leans on this invariant: (name, generation)
	// in its key means a hot-swapped instance can never serve a stale
	// cached plan — the new generation is simply a different key.
	Generation uint64
	// Spec is the normalized spec the entry was built from; the zero Spec
	// for entries registered from a pre-built instance.
	Spec Spec
	// Info carries the build dimensions (|T|, |U|, |A|, city, build time).
	Info BuildInfo
	// Instance is the immutable problem instance.
	Instance *core.Instance

	// source is the dataset half of the build, shared by every entry
	// built on the same generated dataset and λ; nil for AddInstance.
	// sharedFrom names the live entry Load took it from, or is empty when
	// Load built it.
	source     *source
	sharedFrom string
}

// UniverseOrigin reports how Load obtained the entry's universe: "built",
// or "shared:<name>" when it reused the source of the live entry <name>.
func (e *Entry) UniverseOrigin() string {
	if e.sharedFrom == "" {
		return "built"
	}
	return "shared:" + e.sharedFrom
}

// snapshot is the immutable state the readers see: one atomic pointer swap
// publishes a whole new name→entry map.
type snapshot struct {
	entries     map[string]*Entry
	defaultName string
}

// Catalog is a named registry of immutable instance snapshots with atomic
// hot-swap. Reads (Get/List/Len) are lock-free: they follow one
// atomic.Pointer to an immutable snapshot, so a reload never blocks or
// perturbs in-flight solves. Writes (Load/AddInstance/Delete) serialize on
// a mutex but only to swap the pointer — instance building happens outside
// the lock.
//
// The first instance registered becomes the default (the one Get("")
// resolves); deleting the default is refused.
type Catalog struct {
	mu   sync.Mutex // writers only; never held while building
	snap atomic.Pointer[snapshot]
	gen  atomic.Uint64
}

// New returns an empty catalog.
func New() *Catalog {
	c := &Catalog{}
	c.snap.Store(&snapshot{entries: map[string]*Entry{}})
	return c
}

// install swaps in a new snapshot with the given entry added/replaced,
// stamping its generation. It is the single writer commit point.
func (c *Catalog) install(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.installLocked(e)
}

// installLocked is install for callers already holding c.mu — Patch, whose
// read-modify-write must be atomic with respect to other writers.
func (c *Catalog) installLocked(e *Entry) {
	old := c.snap.Load()
	next := &snapshot{
		entries:     make(map[string]*Entry, len(old.entries)+1),
		defaultName: old.defaultName,
	}
	for k, v := range old.entries {
		next.entries[k] = v
	}
	e.Generation = c.gen.Add(1)
	next.entries[e.Name] = e
	if next.defaultName == "" {
		next.defaultName = e.Name
	}
	c.snap.Store(next)
}

// Load builds the spec and installs the result under name, replacing any
// previous entry atomically. The build runs outside the catalog lock, so
// concurrent solves (and even concurrent loads of other names) proceed
// undisturbed; on build error the catalog is unchanged.
//
// A generated spec whose dataset and λ match a live entry's (the resolved
// generator configuration, so "nyc" and "NYC" match) reuses that entry's
// universe and billboard inventory and runs only the instance stage —
// market and model — which takes well under a millisecond. A PUT that
// changes only the market or the model of a live dataset is therefore
// cheap. Data specs always build: their directory can change between
// loads.
func (c *Catalog) Load(name string, spec Spec) (*Entry, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	start := time.Now()
	spec.Name = name
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("catalog: load %q: %w", name, err)
	}
	spec = spec.Normalized()
	src, from := c.liveSource(spec)
	if src == nil {
		var err error
		if src, err = buildSource(spec); err != nil {
			return nil, fmt.Errorf("catalog: load %q: %w", name, err)
		}
	}
	inst, info, err := buildInstance(spec, src, start)
	if err != nil {
		return nil, fmt.Errorf("catalog: load %q: %w", name, err)
	}
	e := &Entry{Name: name, Spec: spec, Info: info, Instance: inst, source: src, sharedFrom: from}
	c.install(e)
	return e, nil
}

// liveSource returns a live entry's source that the normalized spec can
// share, with that entry's name — the first by name when several qualify,
// so the choice does not depend on map order — or nil when none can.
func (c *Catalog) liveSource(spec Spec) (*source, string) {
	if spec.Data != "" {
		return nil, "" // a directory can change between loads
	}
	cfg, err := datasetConfig(spec)
	if err != nil {
		return nil, ""
	}
	key := sourceKey{cfg: cfg, lambda: spec.Lambda}
	var src *source
	var from string
	for name, e := range c.snap.Load().entries {
		if e.source != nil && e.source.key != nil && *e.source.key == key && (src == nil || name < from) {
			src, from = e.source, name
		}
	}
	return src, from
}

// AddInstance installs an already-built instance under name — the path for
// embedders and tests that construct instances directly rather than from a
// Spec. The entry's Spec is zero; its Info carries the instance dimensions.
func (c *Catalog) AddInstance(name string, inst *core.Instance) (*Entry, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	if inst == nil {
		return nil, errors.New("catalog: nil instance")
	}
	u := inst.Universe()
	ratio := 1.0
	if u.NumIDs() > 0 {
		ratio = float64(u.NumTrajectories()) / float64(u.NumIDs())
	}
	e := &Entry{
		Name: name,
		Info: BuildInfo{
			Trajectories:     u.NumTrajectories(),
			Billboards:       u.NumBillboards(),
			Advertisers:      inst.NumAdvertisers(),
			Corridors:        u.NumIDs(),
			CompressionRatio: ratio,
			Model:            inst.Model().Kind(),
		},
		Instance: inst,
	}
	c.install(e)
	return e, nil
}

// Get resolves name to its current entry; the empty name resolves the
// default instance. Lock-free.
func (c *Catalog) Get(name string) (*Entry, bool) {
	s := c.snap.Load()
	if name == "" {
		name = s.defaultName
		if name == "" {
			return nil, false
		}
	}
	e, ok := s.entries[name]
	return e, ok
}

// Delete removes name from the catalog. The default instance cannot be
// deleted; deleting an unknown name returns ErrNotFound. Solves already
// holding the entry finish normally.
func (c *Catalog) Delete(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.snap.Load()
	if _, ok := old.entries[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if name == old.defaultName {
		return fmt.Errorf("%w: %q", ErrDefaultDelete, name)
	}
	next := &snapshot{
		entries:     make(map[string]*Entry, len(old.entries)-1),
		defaultName: old.defaultName,
	}
	for k, v := range old.entries {
		if k != name {
			next.entries[k] = v
		}
	}
	c.snap.Store(next)
	return nil
}

// List returns the current entries sorted by name. Lock-free.
func (c *Catalog) List() []*Entry {
	s := c.snap.Load()
	out := make([]*Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of loaded instances. Lock-free.
func (c *Catalog) Len() int { return len(c.snap.Load().entries) }

// DefaultName returns the name of the default instance ("" while the
// catalog is empty). Lock-free.
func (c *Catalog) DefaultName() string { return c.snap.Load().defaultName }
