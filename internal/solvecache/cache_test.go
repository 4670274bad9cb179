package solvecache

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// eventCount is a concurrency-safe OnEvent sink.
type eventCount struct {
	mu sync.Mutex
	n  map[Event]int
}

func newEventCount() *eventCount { return &eventCount{n: make(map[Event]int)} }

func (e *eventCount) record(ev Event) {
	e.mu.Lock()
	e.n[ev]++
	e.mu.Unlock()
}

func (e *eventCount) get(ev Event) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n[ev]
}

func key(instance string, gen uint64, seed uint64) Key {
	return Key{Instance: instance, Generation: gen, Algorithm: "BLS", Seed: seed, Restarts: 2}
}

// res returns a distinguishable completed (untruncated) result. The cache
// never dereferences Plan, so a nil Plan keeps the tests free of instance
// construction.
func res(regret float64) *core.Anytime {
	return &core.Anytime{TotalRegret: regret}
}

// fill runs one immediate solve through Do so the result lands in the LRU.
func fill(t *testing.T, c *Cache, k Key, r *core.Anytime) {
	t.Helper()
	got, info := c.Do(context.Background(), k, func(context.Context) *core.Anytime { return r })
	if got != r || info.Outcome != Led {
		t.Fatalf("fill %v: got %v outcome %v", k, got, info.Outcome)
	}
}

func TestLRUHitEvictAndAge(t *testing.T) {
	ev := newEventCount()
	base := time.Unix(1000, 0)
	now := base
	c := New(Config{Entries: 2, OnEvent: ev.record, now: func() time.Time { return now }})

	kA, kB, kC := key("m", 1, 1), key("m", 1, 2), key("m", 1, 3)
	fill(t, c, kA, res(10))
	fill(t, c, kB, res(20))
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}

	// Hit A so B becomes the LRU victim, and check the age echo.
	now = base.Add(5 * time.Second)
	got, age, ok := c.Lookup(kA)
	if !ok || got.TotalRegret != 10 || age != 5*time.Second {
		t.Fatalf("lookup A: ok=%v res=%v age=%v", ok, got, age)
	}

	fill(t, c, kC, res(30))
	if c.Len() != 2 {
		t.Fatalf("len %d after eviction, want 2", c.Len())
	}
	if _, _, ok := c.Lookup(kB); ok {
		t.Error("B survived eviction; LRU order ignored the A hit")
	}
	if _, _, ok := c.Lookup(kA); !ok {
		t.Error("A evicted despite being most recently used")
	}

	if ev.get(EventMiss) != 3 || ev.get(EventHit) != 2 || ev.get(EventEvicted) != 1 {
		t.Errorf("events: %d miss / %d hit / %d evicted, want 3/2/1",
			ev.get(EventMiss), ev.get(EventHit), ev.get(EventEvicted))
	}

	// A second Do for a cached key is a hit without a new flight.
	if _, info := c.Do(context.Background(), kC, func(context.Context) *core.Anytime {
		t.Error("cached key re-solved")
		return res(0)
	}); info.Outcome != Hit {
		t.Errorf("Do on cached key: outcome %v, want Hit", info.Outcome)
	}
}

func TestTruncatedResultsAreNotCached(t *testing.T) {
	c := New(Config{Entries: 4})
	k := key("m", 1, 1)
	truncated := &core.Anytime{TotalRegret: 7, Truncated: true}
	got, info := c.Do(context.Background(), k, func(context.Context) *core.Anytime { return truncated })
	if got != truncated || info.Outcome != Led {
		t.Fatalf("truncated solve: got %v outcome %v", got, info.Outcome)
	}
	if c.Len() != 0 {
		t.Fatalf("truncated result was cached (len %d)", c.Len())
	}
	if _, _, ok := c.Lookup(k); ok {
		t.Error("truncated result served from cache")
	}
}

func TestCoalescingSingleSolve(t *testing.T) {
	ev := newEventCount()
	c := New(Config{Entries: 4, OnEvent: ev.record})
	k := key("m", 3, 9)

	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	var solves atomic.Int64
	solve := func(context.Context) *core.Anytime {
		solves.Add(1)
		started <- struct{}{}
		<-gate
		return res(42)
	}

	const waiters = 8
	results := make(chan *core.Anytime, waiters)
	outcomes := make(chan Outcome, waiters)
	var wg sync.WaitGroup
	// Lead with one guaranteed-first call so exactly one flight exists
	// before the followers pile on.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, info := c.Do(context.Background(), k, solve)
		results <- r
		outcomes <- info.Outcome
	}()
	<-started
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, info := c.Do(context.Background(), k, solve)
			results <- r
			outcomes <- info.Outcome
		}()
	}
	// Followers are parked on the flight; release it.
	for ev.get(EventCoalesced) < waiters-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(results)
	close(outcomes)

	if n := solves.Load(); n != 1 {
		t.Errorf("%d solves for %d concurrent identical requests, want 1", n, waiters)
	}
	for r := range results {
		if r == nil || r.TotalRegret != 42 {
			t.Errorf("waiter got %v, want the flight result", r)
		}
	}
	led, followed := 0, 0
	for o := range outcomes {
		switch o {
		case Led:
			led++
		case Followed:
			followed++
		default:
			t.Errorf("unexpected outcome %v", o)
		}
	}
	if led != 1 || followed != waiters-1 {
		t.Errorf("%d led / %d followed, want 1/%d", led, followed, waiters-1)
	}
	if ev.get(EventMiss) != 1 || ev.get(EventCoalesced) != waiters-1 {
		t.Errorf("events: %d miss / %d coalesced, want 1/%d",
			ev.get(EventMiss), ev.get(EventCoalesced), waiters-1)
	}
	// The flight's result is now cached.
	if _, _, ok := c.Lookup(k); !ok {
		t.Error("flight result missing from cache")
	}
}

// TestLeaderExpiryDoesNotStarveTheFlight is the context-detachment contract:
// the leader's own context firing returns Expired to the leader but leaves
// the flight running, and the flight still fills the cache.
func TestLeaderExpiryDoesNotStarveTheFlight(t *testing.T) {
	c := New(Config{Entries: 4})
	k := key("m", 1, 1)

	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel() // the "client" hangs up mid-solve
	}()
	got, info := c.Do(ctx, k, func(fctx context.Context) *core.Anytime {
		if fctx.Err() != nil {
			t.Error("flight context already cancelled at start")
		}
		started <- struct{}{}
		<-gate
		if fctx.Err() != nil {
			t.Error("requester cancellation reached the detached flight context")
		}
		return res(5)
	})
	if got != nil || info.Outcome != Expired {
		t.Fatalf("cancelled leader got %v outcome %v, want nil/Expired", got, info.Outcome)
	}

	close(gate)
	// The orphaned flight completes and caches its result.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if r, _, ok := c.Lookup(k); ok {
			if r.TotalRegret != 5 {
				t.Fatalf("cached %v, want the orphaned flight's result", r)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("orphaned flight never filled the cache")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFollowerHonorsItsOwnDeadline(t *testing.T) {
	c := New(Config{Entries: 4})
	k := key("m", 1, 1)

	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	go c.Do(context.Background(), k, func(context.Context) *core.Anytime {
		started <- struct{}{}
		<-gate
		return res(1)
	})
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	begin := time.Now()
	got, info := c.Do(ctx, k, func(context.Context) *core.Anytime {
		t.Error("follower started a second solve")
		return nil
	})
	if got != nil || info.Outcome != Expired {
		t.Fatalf("expired follower got %v outcome %v", got, info.Outcome)
	}
	if waited := time.Since(begin); waited > 2*time.Second {
		t.Errorf("follower waited %v past its 10ms budget", waited)
	}
	close(gate)
}

func TestMaxFlightBoundsDetachedContext(t *testing.T) {
	c := New(Config{Entries: 4, MaxFlight: 25 * time.Millisecond})
	k := key("m", 1, 1)
	got, info := c.Do(context.Background(), k, func(fctx context.Context) *core.Anytime {
		dl, ok := fctx.Deadline()
		if !ok {
			t.Error("flight context missing the MaxFlight deadline")
		} else if until := time.Until(dl); until > 25*time.Millisecond {
			t.Errorf("flight deadline %v out, want <= MaxFlight", until)
		}
		<-fctx.Done() // simulate a solve truncated by the flight bound
		return &core.Anytime{TotalRegret: 3, Truncated: true}
	})
	if info.Outcome != Led || got == nil || !got.Truncated {
		t.Fatalf("got %v outcome %v", got, info.Outcome)
	}
	if c.Len() != 0 {
		t.Error("flight-truncated result was cached")
	}
}

func TestInvalidateInstance(t *testing.T) {
	ev := newEventCount()
	c := New(Config{Entries: 8, OnEvent: ev.record})
	fill(t, c, key("a", 1, 1), res(1))
	fill(t, c, key("a", 2, 1), res(2)) // older generation of the same name
	fill(t, c, key("b", 3, 1), res(3))

	if n := c.InvalidateInstance("a", 3); n != 2 {
		t.Errorf("invalidated %d, want 2", n)
	}
	if c.Len() != 1 {
		t.Errorf("len %d after invalidation, want 1", c.Len())
	}
	if _, _, ok := c.Lookup(key("b", 3, 1)); !ok {
		t.Error("unrelated instance was invalidated")
	}
	if _, _, ok := c.Lookup(key("a", 1, 1)); ok {
		t.Error("invalidated entry still served")
	}
	if ev.get(EventEvicted) != 2 {
		t.Errorf("evicted events %d, want 2", ev.get(EventEvicted))
	}
	if n := c.InvalidateInstance("missing", 1); n != 0 {
		t.Errorf("invalidating an absent instance dropped %d", n)
	}
}

// TestGenerationFloor pins the floor InvalidateInstance raises: a key below
// it is Stale (no solve runs), an entry at or above it survives, a flight
// that was invalidated while it ran answers its waiter but stores nothing,
// and a lower floor never lowers it.
func TestGenerationFloor(t *testing.T) {
	c := New(Config{Entries: 8})
	fill(t, c, key("a", 1, 1), res(1))
	if n := c.InvalidateInstance("a", 2); n != 1 {
		t.Errorf("invalidated %d, want 1", n)
	}
	solved := false
	got, info := c.Do(context.Background(), key("a", 1, 1), func(context.Context) *core.Anytime {
		solved = true
		return res(1)
	})
	if got != nil || info.Outcome != Stale || solved {
		t.Fatalf("stale key: got %v outcome %v solved %v, want nil Stale unsolved", got, info.Outcome, solved)
	}

	// An entry at the floor is live, and re-invalidating at the same floor
	// keeps it.
	fill(t, c, key("a", 2, 1), res(2))
	if n := c.InvalidateInstance("a", 2); n != 0 {
		t.Errorf("invalidated %d at an unchanged floor, want 0", n)
	}
	if _, _, ok := c.Lookup(key("a", 2, 1)); !ok {
		t.Error("entry at the floor was dropped")
	}

	// A flight invalidated mid-solve still answers, but does not store.
	release := make(chan struct{})
	r3 := res(3)
	out := make(chan *core.Anytime)
	go func() {
		got, _ := c.Do(context.Background(), key("a", 3, 1), func(context.Context) *core.Anytime {
			<-release
			return r3
		})
		out <- got
	}()
	for {
		c.mu.Lock()
		inFlight := len(c.flights)
		c.mu.Unlock()
		if inFlight == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.InvalidateInstance("a", 4)
	close(release)
	if got := <-out; got != r3 {
		t.Fatalf("invalidated flight answered %v, want its own result", got)
	}
	if c.Len() != 0 {
		t.Errorf("len %d: a flight below the floor stored its result", c.Len())
	}

	c.InvalidateInstance("a", 1)
	if _, info := c.Do(context.Background(), key("a", 3, 1), func(context.Context) *core.Anytime { return r3 }); info.Outcome != Stale {
		t.Errorf("outcome %v after a lower floor, want Stale: floors only rise", info.Outcome)
	}
	if _, info := c.Do(context.Background(), key("b", 1, 1), func(context.Context) *core.Anytime { return r3 }); info.Outcome != Led {
		t.Errorf("other instance: outcome %v, want Led", info.Outcome)
	}
}

// TestConcurrentMixedKeys hammers Do with overlapping keys under -race:
// every key must be solved at most once while its entry stays resident, and
// every waiter must observe its own key's result.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New(Config{Entries: 64})
	const keys, goroutines, iters = 8, 12, 50
	var solves [keys]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ki := (g + i) % keys
				k := key("m", 1, uint64(ki))
				r, info := c.Do(context.Background(), k, func(context.Context) *core.Anytime {
					solves[ki].Add(1)
					return res(float64(ki))
				})
				if info.Outcome == Expired {
					t.Errorf("background ctx expired")
					return
				}
				if r.TotalRegret != float64(ki) {
					t.Errorf("key %d got regret %v", ki, r.TotalRegret)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i := range solves {
		if n := solves[i].Load(); n != 1 {
			t.Errorf("key %d solved %d times, want 1 (capacity was never exceeded)", i, n)
		}
	}
}
