package core

import "time"

// This file defines the solver probe interface: a Tracer receives progress
// events from the randomized local search framework (restart lifecycle,
// best-regret improvements, eval-count and selection-counter deltas) so
// that serving layers can meter solves and the CLI can record the paper's
// regret-vs-time convergence trajectories.
//
// Tracing is strictly observational. Every hook site is nil-checked, the
// solvers never read anything back from the tracer, and all wall-clock
// reads happen only when a tracer is attached — with Tracer == nil the
// solve path executes exactly the instructions it executed before the
// probes existed, so results stay bit-identical and the disabled path pays
// nothing (see TestTracerDoesNotPerturbResults).

// Tracer receives solver progress events. When the restart loop runs on
// multiple workers (LocalSearchOptions.Workers > 1) the callbacks are
// invoked concurrently from the worker goroutines; implementations must be
// safe for concurrent use. Improved calls are serialized by the engine and
// arrive in strictly decreasing regret order.
//
// Slot numbering follows the restart schedule of Algorithm 3: slot 0 is
// the greedy-initialized descent, slots 1..Restarts are the randomized
// restart iterations.
type Tracer interface {
	// RestartStart fires when a worker begins executing slot's descent,
	// with the wall-clock time elapsed since the solve started.
	RestartStart(slot int, elapsed time.Duration)
	// RestartDone fires when slot's descent converges, with the slot's
	// local-optimum regret, the marginal evaluations it spent, and the
	// wall-clock time elapsed since the solve started.
	RestartDone(slot int, regret float64, evals int64, elapsed time.Duration)
	// Improved fires when a completed slot's regret beats every slot
	// completed before it (wall-clock order). The first completed slot
	// always fires it, so a traced solve emits at least one improvement;
	// successive calls carry strictly decreasing regrets and
	// non-decreasing elapsed times. Under truncation the deterministic
	// prefix reduction may discard an out-of-order slot, so the final
	// Anytime regret can exceed the last Improved regret; with no
	// truncation they agree.
	Improved(slot int, regret float64, elapsed time.Duration)
	// Evals reports the marginal-evaluation delta of a finished (or
	// abandoned) slot. Deltas sum to the Anytime.Evals work measure.
	Evals(delta int64)
	// Cache reports the selection-counter (CacheStats) delta of a
	// finished (or abandoned) slot.
	Cache(delta CacheStats)
}

// TracerFuncs adapts a set of optional callbacks to the Tracer interface;
// nil fields are no-ops. The zero value is a valid tracer that ignores
// everything.
type TracerFuncs struct {
	OnRestartStart func(slot int, elapsed time.Duration)
	OnRestartDone  func(slot int, regret float64, evals int64, elapsed time.Duration)
	OnImproved     func(slot int, regret float64, elapsed time.Duration)
	OnEvals        func(delta int64)
	OnCache        func(delta CacheStats)
}

// RestartStart implements Tracer.
func (t TracerFuncs) RestartStart(slot int, elapsed time.Duration) {
	if t.OnRestartStart != nil {
		t.OnRestartStart(slot, elapsed)
	}
}

// RestartDone implements Tracer.
func (t TracerFuncs) RestartDone(slot int, regret float64, evals int64, elapsed time.Duration) {
	if t.OnRestartDone != nil {
		t.OnRestartDone(slot, regret, evals, elapsed)
	}
}

// Improved implements Tracer.
func (t TracerFuncs) Improved(slot int, regret float64, elapsed time.Duration) {
	if t.OnImproved != nil {
		t.OnImproved(slot, regret, elapsed)
	}
}

// Evals implements Tracer.
func (t TracerFuncs) Evals(delta int64) {
	if t.OnEvals != nil {
		t.OnEvals(delta)
	}
}

// Cache implements Tracer.
func (t TracerFuncs) Cache(delta CacheStats) {
	if t.OnCache != nil {
		t.OnCache(delta)
	}
}
