// Package solvecache memoizes completed anytime solves behind the serving
// layer. The solvers are pure functions of their request tuple: for a fixed
// instance build, algorithm, seed, restart budget and improvement ratio the
// returned plan is bit-identical on every run and for every worker count
// (the determinism proven by the worker-invariance and equal-specs tests).
// That makes a repeated /solve request a cache lookup, not a recomputation —
// exactly the traffic shape of an influence provider whose advertisers probe
// near-identical demand/payment queries over and over.
//
// The cache is a capacity-bounded LRU of *untruncated* results keyed by the
// canonical request tuple (Key). A deadline-truncated result is not the
// deterministic fixed point — it depends on how much wall clock the request
// happened to get — so it is never stored: serving it to a request with a
// longer budget would silently hand back less work than the budget bought.
//
// Identical requests that arrive while the answer is being computed coalesce
// onto one in-flight solve (singleflight). The flight runs on a context
// detached from every requester, bounded only by the configured MaxFlight,
// so one impatient client hanging up cannot starve the requesters still
// waiting — or the cache fill. Each requester waits for the flight under its
// own context and gives up individually (Expired) when that context fires;
// the flight keeps running and its result still lands in the cache.
//
// The package is stdlib-only, in keeping with the repository's
// dependency-free go.mod contract.
package solvecache

import (
	"container/list"
	"context"
	"sync"
	"time"

	"repro/internal/core"
)

// Key is the canonical request tuple a solve result is a pure function of.
// Generation identifies the exact catalog build (a hot-swap installs a
// strictly larger generation), and the remaining fields pin the algorithm
// configuration. Worker counts are deliberately absent: results are
// bit-identical for any parallelism.
type Key struct {
	// Instance is the catalog name the request resolved.
	Instance string
	// Generation is the catalog generation of the resolved snapshot.
	Generation uint64
	// Algorithm is the canonical algorithm name (core's Name(), not the
	// client's spelling).
	Algorithm string
	// Model is the instance's regret-model kind ("base" or "zonal"). The
	// generation already changes on every reload, but the model kind is
	// part of the answer's semantics — folding it into the key guarantees a
	// base request can never be answered from a zonal entry (or vice versa)
	// even across code paths that reuse generations.
	Model string
	// Seed drives the randomized local search.
	Seed uint64
	// Restarts is the requested restart budget, as sent by the client.
	Restarts int
	// ImprovementRatio is Definition 6.1's r, as sent by the client.
	ImprovementRatio float64
}

// Event is one cache occurrence, reported through Config.OnEvent so the
// embedder can count them (the server wires these into
// mroamd_solve_cache_events_total).
type Event string

const (
	// EventHit: a completed result was served from the LRU.
	EventHit Event = "hit"
	// EventMiss: no entry and no flight existed; a new flight was started.
	EventMiss Event = "miss"
	// EventCoalesced: the request joined an already in-flight solve.
	EventCoalesced Event = "coalesced"
	// EventEvicted: an entry left the cache — pushed out by capacity or
	// dropped by instance invalidation.
	EventEvicted Event = "evicted"
)

// Outcome reports how Do satisfied (or failed to satisfy) one request.
type Outcome int

const (
	// Hit: served from the LRU without waiting.
	Hit Outcome = iota
	// Led: this call started the flight and waited for its completion.
	Led
	// Followed: this call joined an existing flight and waited for its
	// completion.
	Followed
	// Expired: the requester's own context fired before the flight
	// finished; no result is returned. The flight keeps running.
	Expired
	// Stale: the key's generation is below its instance's floor (see
	// InvalidateInstance) — the snapshot the caller resolved has been
	// replaced since. No solve ran and no result is returned; the caller
	// should resolve the instance again and retry with the new key.
	Stale
)

// Info annotates a Do result.
type Info struct {
	Outcome Outcome
	// Age is how long the returned entry had been cached; non-zero only
	// for Hit.
	Age time.Duration
}

// Config parameterizes a Cache.
type Config struct {
	// Entries is the LRU capacity; must be >= 1 (a zero-capacity cache is
	// represented by not constructing one).
	Entries int
	// MaxFlight bounds the detached context a flight solves under — the
	// embedder passes its own max request deadline so an orphaned flight
	// cannot outlive what any client could have asked for. 0 means
	// unbounded.
	MaxFlight time.Duration
	// OnEvent, when non-nil, receives every cache event. It is called
	// outside the cache lock and must be safe for concurrent use.
	OnEvent func(Event)
	// now is a test hook; nil selects time.Now.
	now func() time.Time
}

// Cache is a capacity-bounded LRU of completed solve results with
// singleflight coalescing. All methods are safe for concurrent use.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	ll      *list.List            // front = most recently used
	items   map[Key]*list.Element // key -> element whose Value is *entry
	flights map[Key]*flight       // solves currently in progress
	floors  map[string]uint64     // instance -> lowest generation still served
}

type entry struct {
	key      Key
	res      *core.Anytime
	storedAt time.Time
}

// flight is one in-progress solve. res is written exactly once, before done
// is closed; waiters read it only after <-done, so the channel close is the
// publication point.
type flight struct {
	done chan struct{}
	res  *core.Anytime
}

// New returns a Cache holding at most cfg.Entries results.
func New(cfg Config) *Cache {
	if cfg.Entries < 1 {
		panic("solvecache: Config.Entries must be >= 1")
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Cache{
		cfg:     cfg,
		ll:      list.New(),
		items:   make(map[Key]*list.Element),
		flights: make(map[Key]*flight),
		floors:  make(map[string]uint64),
	}
}

func (c *Cache) event(ev Event, n int) {
	if c.cfg.OnEvent == nil {
		return
	}
	for i := 0; i < n; i++ {
		c.cfg.OnEvent(ev)
	}
}

// Lookup returns the cached result for key and its age, if present. It is
// the admission fast path: a hit costs one mutex acquisition and no tokens.
// A miss is silent (no event) — the caller is expected to follow up with Do,
// which classifies the request as miss or coalesced exactly once.
func (c *Cache) Lookup(key Key) (*core.Anytime, time.Duration, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		return nil, 0, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*entry)
	age := c.cfg.now().Sub(e.storedAt)
	c.mu.Unlock()
	c.event(EventHit, 1)
	return e.res, age, true
}

// Do returns the result for key, computing it at most once across all
// concurrent callers. The first caller for a key starts a flight running
// solve on a context detached from every requester (bounded by MaxFlight);
// later callers wait on the same flight. Every caller — the leader included
// — waits under its own ctx and returns Expired with a nil result if ctx
// fires first; the flight is unaffected and still fills the cache when it
// completes untruncated. A key below its instance's generation floor
// returns Stale at once, without solving.
func (c *Cache) Do(ctx context.Context, key Key, solve func(context.Context) *core.Anytime) (*core.Anytime, Info) {
	c.mu.Lock()
	if key.Generation < c.floors[key.Instance] {
		c.mu.Unlock()
		return nil, Info{Outcome: Stale}
	}
	if el, ok := c.items[key]; ok {
		// A flight completed between the caller's Lookup and this Do.
		c.ll.MoveToFront(el)
		e := el.Value.(*entry)
		age := c.cfg.now().Sub(e.storedAt)
		c.mu.Unlock()
		c.event(EventHit, 1)
		return e.res, Info{Outcome: Hit, Age: age}
	}
	f, joined := c.flights[key]
	if !joined {
		f = &flight{done: make(chan struct{})}
		c.flights[key] = f
		go c.runFlight(key, f, solve)
	}
	c.mu.Unlock()
	if joined {
		c.event(EventCoalesced, 1)
	} else {
		c.event(EventMiss, 1)
	}

	select {
	case <-f.done:
		out := Led
		if joined {
			out = Followed
		}
		return f.res, Info{Outcome: out}
	case <-ctx.Done():
		return nil, Info{Outcome: Expired}
	}
}

// runFlight executes one coalesced solve on a detached context and
// publishes the result to the cache and to every waiter.
func (c *Cache) runFlight(key Key, f *flight, solve func(context.Context) *core.Anytime) {
	ctx := context.Background()
	if c.cfg.MaxFlight > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.MaxFlight)
		defer cancel()
	}
	res := solve(ctx)

	evicted := 0
	c.mu.Lock()
	delete(c.flights, key)
	if res != nil && !res.Truncated && key.Generation >= c.floors[key.Instance] {
		// Only the untruncated fixed point is cacheable: a truncated plan
		// reflects this flight's wall-clock budget, not the request tuple.
		// A flight whose generation was invalidated while it ran still
		// answers its waiters but stores nothing.
		evicted = c.storeLocked(key, res)
	}
	c.mu.Unlock()
	c.event(EventEvicted, evicted)

	f.res = res
	close(f.done)
}

// storeLocked inserts (or refreshes) key and evicts past capacity,
// returning how many entries were evicted. Caller holds c.mu.
func (c *Cache) storeLocked(key Key, res *core.Anytime) int {
	now := c.cfg.now()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		e.res, e.storedAt = res, now
		c.ll.MoveToFront(el)
		return 0
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, res: res, storedAt: now})
	evicted := 0
	for c.ll.Len() > c.cfg.Entries {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*entry).key)
		evicted++
	}
	return evicted
}

// InvalidateInstance raises instance's generation floor to floor and drops
// every entry of instance below it, returning how many were dropped (each
// also fires an evicted event). The serving layer calls it when an
// instance is reloaded or patched, with the generation just installed, and
// when it is deleted, with the deleted generation + 1. Keys below the floor
// are stale from then on: Do answers them Stale, so a request that
// resolved the replaced snapshot re-resolves instead of solving a dead
// build a second time after its entry was dropped, and a flight for one
// still answers its waiters but stores nothing. Entries at or above the
// floor — a fresh generation solved before its reload's invalidation ran —
// stay. Floors only rise.
func (c *Cache) InvalidateInstance(instance string, floor uint64) int {
	c.mu.Lock()
	if floor > c.floors[instance] {
		c.floors[instance] = floor
	}
	floor = c.floors[instance]
	dropped := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*entry)
		if e.key.Instance == instance && e.key.Generation < floor {
			c.ll.Remove(el)
			delete(c.items, e.key)
			dropped++
		}
		el = next
	}
	c.mu.Unlock()
	c.event(EventEvicted, dropped)
	return dropped
}

// Len returns the number of cached entries (the size gauge).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
