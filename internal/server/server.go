// Package server implements mroamd's HTTP serving layer over the anytime
// solve engine: a JSON API that accepts per-request algorithm and deadline
// selection, a bounded worker pool with queue admission control (overload
// answers 429 instead of piling up goroutines), and per-request metrics
// exposed on /stats.
//
// Endpoints:
//
//	POST   /solve             run one solve against a catalog instance
//	GET    /healthz           liveness probe
//	GET    /stats             aggregate request metrics (JSON)
//	GET    /metrics           the same aggregates in Prometheus text exposition
//	GET    /instances         list the loaded instances
//	PUT    /instances/{name}  load or hot-swap an instance from a Spec body
//	DELETE /instances/{name}  unload an instance (the default is protected)
//
// Every /solve request is assigned a process-unique request ID, echoed in
// the X-Request-ID response header, propagated through the request context
// into the solver, and stamped on the one structured log line emitted per
// request (outcome, algorithm, seed, restarts completed, truncation,
// latency). When Config.Logger admits Debug records, solver progress
// events (restart schedule, incumbent improvements) are logged too, via a
// core.Tracer — tracing is observational, so traced and untraced solves
// return bit-identical plans.
//
// The server serves a catalog.Catalog of named immutable instances. A
// /solve request picks one with its optional "instance" field; omitting it
// selects the catalog's default instance, which preserves the single-
// instance wire format exactly (covered by a golden test). Solves are
// read-only with respect to the instance they resolved at admission, so any
// number can run concurrently, and a PUT reload hot-swaps the name without
// blocking or perturbing them — in-flight solves finish on the snapshot
// they started with. The worker pool bounds CPU oversubscription, and the
// queue bounds latency: a request that cannot be admitted is rejected
// immediately with 429 so the client can retry against another replica
// instead of waiting behind an unbounded backlog.
//
// With Config.CacheEntries > 0 the server memoizes completed untruncated
// solves in a solvecache.Cache keyed by the deterministic request tuple
// (instance name + catalog generation, algorithm, seed, restarts,
// improvement ratio): a repeated request is answered from cache without
// consuming a worker slot ("cached": true plus the entry's age in the
// response), and identical concurrent requests coalesce onto one in-flight
// solve. The generation in the key makes a hot-swap an automatic miss, and
// DELETE (or a reload) drops the name's dead entries eagerly.
//
// The /instances admin endpoints mutate the catalog and carry no built-in
// authentication, mirroring the ops-port posture (DESIGN.md §10): deploy
// them behind the same network controls as /debug/pprof, or keep the API
// listener private.
//
// Graceful shutdown is delegated to net/http: http.Server.Shutdown stops
// accepting connections and waits for in-flight handlers — and therefore
// in-flight solves — to drain. Solves additionally run under the request
// context, so a client that disconnects (or a server closed with
// http.Server.Close) cancels its solve mid-restart via the anytime engine
// rather than leaking a runaway computation.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solvecache"
)

// Config parameterizes a Server.
type Config struct {
	// Catalog holds the named instances /solve requests run against; a
	// request's "instance" field picks one, defaulting to the catalog's
	// default entry. Required, with at least one instance loaded.
	Catalog *catalog.Catalog
	// Workers bounds the number of concurrently executing solves.
	// Values < 1 select runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth is how many admitted requests may wait for a worker slot
	// beyond the Workers executing ones. Requests arriving with the queue
	// full are rejected with 429. Values < 0 select 2×Workers.
	QueueDepth int
	// DefaultDeadline is applied to requests that do not set deadline_ms.
	// Zero means no implicit deadline.
	DefaultDeadline time.Duration
	// MaxDeadline caps the per-request deadline (and bounds how long a
	// drain can take). Zero means no cap.
	MaxDeadline time.Duration
	// MaxRestarts caps the per-request restart budget as an admission
	// guard against accidentally enormous requests. Values < 1 select
	// DefaultMaxRestarts.
	MaxRestarts int
	// CacheEntries bounds the solve-result cache: completed untruncated
	// solves are memoized by their deterministic request tuple (instance
	// name + catalog generation, algorithm, seed, restarts, improvement
	// ratio), and identical concurrent requests coalesce onto one
	// in-flight solve. 0 (the default) disables caching entirely.
	CacheEntries int
	// Admission selects the admission policy: AdmitShed (the default,
	// byte-identical to the pre-policy server), AdmitDeadline (shed
	// requests whose deadline the queue provably cannot meet at the
	// current drain rate) or AdmitFair (cap any one instance's share of
	// the admission capacity). Empty selects AdmitShed.
	Admission string
	// FairShare caps how many admission slots (queued + executing
	// requests) one instance may hold under AdmitFair. Values < 1 select
	// half the total capacity, rounded up. Ignored by the other policies.
	FairShare int
	// TraceCapacity bounds the in-daemon span store: completed request
	// traces are retained in a ring of this many slots and served on
	// /debug/traces. 0 (the default) disables span tracing entirely — the
	// request path then mints no span IDs and records no spans, and solve
	// results are bit-identical either way (tracing is observational).
	TraceCapacity int
	// TraceKeepSlowest is the fraction of plain served traces tail
	// sampling keeps once warmed up (errors, sheds and truncations are
	// always kept). Non-positive selects obs.DefaultTraceKeepSlowest;
	// values ≥ 1 keep everything.
	TraceKeepSlowest float64
	// Logger receives one structured record per /solve request plus
	// lifecycle events. nil discards everything. A logger whose level
	// admits Debug additionally gets per-restart solver trace events.
	Logger *slog.Logger

	// solve overrides the solve call in tests (e.g. to gate completion
	// deterministically). nil selects core.SolveAnytime.
	solve func(ctx context.Context, alg core.Algorithm, inst *core.Instance) *core.Anytime
}

// DefaultMaxRestarts is the per-request restart cap when Config.MaxRestarts
// is unset.
const DefaultMaxRestarts = 1000

// Server serves solve requests over a catalog of MROAM instances.
type Server struct {
	cfg     Config
	catalog *catalog.Catalog
	log     *slog.Logger
	mux     *http.ServeMux
	queue   chan struct{} // waiting-room tokens: capacity QueueDepth
	workers chan struct{} // execution tokens: capacity Workers
	metrics *metrics
	cache   *solvecache.Cache // nil when Config.CacheEntries == 0
	traces  *obs.SpanStore    // nil when Config.TraceCapacity == 0
	adm     *admission

	// incumbents carries the last completed plan per (instance, model) for
	// warm-started solves; incumbent.go owns it.
	incMu      sync.Mutex
	incumbents map[string]*incumbent
}

// backlog is the number of admitted requests currently holding an admission
// slot — waiting for a worker plus executing on one. Every estimate the
// admission layer makes (Retry-After, deadline feasibility, /stats, the
// queue-depth gauge) consumes this one definition, so the two token
// channels can never be counted inconsistently: a request holds exactly one
// of the two tokens at any instant.
func (s *Server) backlog() int { return len(s.queue) + len(s.workers) }

// New validates cfg and returns a ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	if cfg.Catalog == nil {
		return nil, errors.New("server: Config.Catalog is required")
	}
	if cfg.Catalog.Len() == 0 {
		return nil, errors.New("server: Config.Catalog has no instances loaded")
	}
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.MaxRestarts < 1 {
		cfg.MaxRestarts = DefaultMaxRestarts
	}
	if cfg.Admission == "" {
		cfg.Admission = AdmitShed
	}
	if !validPolicy(cfg.Admission) {
		return nil, fmt.Errorf("server: unknown admission policy %q (want %s, %s or %s)",
			cfg.Admission, AdmitShed, AdmitDeadline, AdmitFair)
	}
	if cfg.FairShare < 1 {
		cfg.FairShare = DefaultFairShare(cfg.Workers + cfg.QueueDepth)
	}
	if cfg.solve == nil {
		cfg.solve = core.SolveAnytime
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	s := &Server{
		cfg:        cfg,
		catalog:    cfg.Catalog,
		log:        cfg.Logger,
		mux:        http.NewServeMux(),
		queue:      make(chan struct{}, cfg.QueueDepth),
		workers:    make(chan struct{}, cfg.Workers),
		metrics:    newMetrics(cfg.Catalog),
		incumbents: map[string]*incumbent{},
		adm: &admission{
			policy:    cfg.Admission,
			workers:   cfg.Workers,
			capacity:  cfg.Workers + cfg.QueueDepth,
			fairShare: cfg.FairShare,
		},
	}
	s.metrics.reg.GaugeFunc("mroamd_queue_depth",
		"Admitted requests currently queued or executing.",
		func() float64 { return float64(s.backlog()) })
	s.metrics.reg.GaugeFunc("mroamd_inflight_solves",
		"Solves currently holding a worker slot.",
		func() float64 { return float64(len(s.workers)) })
	if cfg.CacheEntries > 0 {
		s.cache = solvecache.New(solvecache.Config{
			Entries: cfg.CacheEntries,
			// A flight detached from its requesters still never runs
			// longer than any client could have asked for.
			MaxFlight: cfg.MaxDeadline,
			OnEvent:   func(ev solvecache.Event) { s.metrics.solveCache.With(string(ev)).Inc() },
		})
	}
	if cfg.TraceCapacity > 0 {
		s.traces = obs.NewSpanStore(cfg.TraceCapacity, cfg.TraceKeepSlowest)
		s.traces.OnEvent = func(kept bool) {
			if kept {
				s.metrics.traceEvents.With("stored").Inc()
			} else {
				s.metrics.traceEvents.With("sampled_out").Inc()
			}
		}
		s.metrics.reg.GaugeFunc("mroamd_trace_store_traces",
			"Completed request traces currently retained in the span store.",
			func() float64 { return float64(s.traces.Len()) })
	}
	s.metrics.reg.GaugeFunc("mroamd_solve_cache_entries",
		"Completed solve results currently cached.",
		func() float64 {
			if s.cache == nil {
				return 0
			}
			return float64(s.cache.Len())
		})
	s.mux.HandleFunc("/solve", s.handleSolve)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.Handle("/metrics", s.MetricsHandler())
	s.mux.HandleFunc("GET /instances", s.handleInstancesList)
	s.mux.HandleFunc("PUT /instances/{name}", s.handleInstancePut)
	s.mux.HandleFunc("PATCH /instances/{name}/advertisers", s.handleInstancePatch)
	s.mux.HandleFunc("DELETE /instances/{name}", s.handleInstanceDelete)
	s.mux.Handle("/debug/traces", s.TracesHandler())
	s.mux.Handle("/debug/traces/{id}", s.TracesHandler())
	return s, nil
}

// TracesHandler returns the /debug/traces handlers on their own, so a
// separate ops listener can serve them without exposing /solve (mirroring
// MetricsHandler). With tracing disabled the handlers answer 404.
func (s *Server) TracesHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/traces", s.handleTracesList)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
	return mux
}

// Handler returns the HTTP handler tree; mount it on an http.Server (whose
// Shutdown drains in-flight solves).
func (s *Server) Handler() http.Handler { return s.mux }

// MetricsHandler returns the Prometheus exposition handler on its own, so
// a separate ops listener can serve /metrics without exposing /solve.
func (s *Server) MetricsHandler() http.Handler { return s.metrics.reg.Handler() }

// SolveRequest is the JSON body of POST /solve.
type SolveRequest struct {
	// Instance names the catalog instance to solve against; empty selects
	// the server's default instance.
	Instance string `json:"instance,omitempty"`
	// Algorithm is the figure name of the solver: "G-Order", "G-Global",
	// "ALS" or "BLS".
	Algorithm string `json:"algorithm"`
	// Restarts is the ALS/BLS restart budget (0 selects the library
	// default). Capped by the server's MaxRestarts admission guard.
	Restarts int `json:"restarts"`
	// Seed drives the randomized local search; equal seeds give equal
	// plans (when no deadline fires).
	Seed uint64 `json:"seed"`
	// DeadlineMS is the solve's latency budget in milliseconds. 0 selects
	// the server default; the server's MaxDeadline caps it either way.
	DeadlineMS int64 `json:"deadline_ms"`
	// ImprovementRatio is Definition 6.1's r for BLS.
	ImprovementRatio float64 `json:"improvement_ratio"`
	// SearchWorkers fans one solve's restart loop over N goroutines
	// (0 = serial). Results are identical for any value.
	SearchWorkers int `json:"search_workers"`
	// IncludeAssignments adds the full per-advertiser billboard sets to
	// the response.
	IncludeAssignments bool `json:"include_assignments"`
	// WarmStart seeds the solve from the daemon's last completed plan for
	// the same (instance, model) pair, when one exists at the instance's
	// current generation — the delta-solve path for patched markets. With
	// no usable incumbent the solve runs cold and the response says so
	// (warm_started absent). Warm-started results are never served from or
	// stored into the solve cache: the incumbent is part of the effective
	// input but not of the cache key.
	WarmStart bool `json:"warm_start,omitempty"`
}

// SolveResponse is the JSON body answering POST /solve. Instance and
// Generation identify the exact catalog snapshot that was solved; they are
// echoed only when the request named an instance, which keeps the default-
// instance response byte-identical to the pre-catalog wire format.
type SolveResponse struct {
	Algorithm  string `json:"algorithm"`
	Instance   string `json:"instance,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
	// Model is the resolved instance's regret-model kind. Echoed whenever
	// the instance carries a variant model; for base instances it follows
	// the Instance/Generation rule (named requests only) so the default-
	// instance body stays byte-identical to the pre-model wire format.
	Model             string  `json:"model,omitempty"`
	TotalRegret       float64 `json:"total_regret"`
	Excess            float64 `json:"excess_regret"`
	Unsatisfied       float64 `json:"unsatisfied_regret"`
	Revenue           float64 `json:"revenue"`
	Satisfied         int     `json:"satisfied"`
	Advertisers       int     `json:"advertisers"`
	RestartsRequested int     `json:"restarts_requested"`
	RestartsCompleted int     `json:"restarts_completed"`
	Truncated         bool    `json:"truncated"`
	Evals             int64   `json:"evals"`
	LatencyMS         float64 `json:"latency_ms"`
	// EffectiveDeadlineMS echoes the deadline the solve actually ran under
	// whenever it differs from the one the request asked for — a clamp to
	// MaxDeadline, or a default applied to a request that set none — so a
	// truncated response is always explicable. Omitted when the requested
	// deadline was used verbatim.
	EffectiveDeadlineMS int64 `json:"effective_deadline_ms,omitempty"`
	// Cached is true when the result came from the solve cache — a
	// completed entry, or an identical in-flight solve this request
	// coalesced onto. CacheAgeMS is how long the entry had been cached
	// (0 for coalesced results, which are brand new).
	Cached     bool    `json:"cached,omitempty"`
	CacheAgeMS float64 `json:"cache_age_ms,omitempty"`
	// WarmStarted reports that the solve was seeded from a validated
	// incumbent plan (requests with "warm_start": true only); false there
	// means the daemon had no incumbent at the instance's current
	// generation and ran cold. FrozenAdvertisers is how many advertisers
	// the branch-switch screen kept out of the warm descent.
	WarmStarted       bool    `json:"warm_started,omitempty"`
	FrozenAdvertisers int     `json:"frozen_advertisers,omitempty"`
	Assignments       [][]int `json:"assignments,omitempty"`
}

// errorResponse is the JSON body of non-200 answers.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body) // headers are out; nothing useful left to do on error
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBody bounds /solve bodies; solve requests are a handful of
// scalar knobs, so anything larger is a client bug.
const maxRequestBody = 1 << 20

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	// Admission stamps every request — even ones about to be rejected —
	// with an ID, so a log line can always be tied back to the response the
	// client saw. A request arriving with a valid traceparent uses its
	// trace ID as that identifier end to end (X-Request-ID, log line,
	// /debug/traces); anything else gets a legacy process-unique ID.
	admitted := time.Now()
	lc := s.startLifecycle(w, r, admitted)
	reqID := lc.requestID
	w.Header().Set("X-Request-ID", reqID)
	ctx := obs.WithRequestID(r.Context(), reqID)
	reqLog := s.log.With("req", reqID)
	if lc.traceID != "" && lc.traceID != reqID {
		reqLog = reqLog.With("trace", lc.traceID)
	}
	logOutcome := func(status int, attrs ...any) {
		attrs = append(attrs,
			"status", status,
			"elapsed_ms", float64(time.Since(admitted).Microseconds())/1e3)
		reqLog.Info("solve request", attrs...)
	}
	fail := func(status int, outcome, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		logOutcome(status, "error", msg)
		writeJSON(w, status, errorResponse{Error: msg})
		lc.finish(status, outcome)
	}

	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		fail(http.StatusMethodNotAllowed, "error", "POST only")
		return
	}
	var req SolveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		fail(http.StatusBadRequest, "error", "decode request: %v", err)
		return
	}
	if req.Restarts < 0 || req.DeadlineMS < 0 {
		fail(http.StatusBadRequest, "error", "restarts and deadline_ms must be non-negative")
		return
	}
	if req.Restarts > s.cfg.MaxRestarts {
		fail(http.StatusBadRequest, "error", "restarts %d exceeds server cap %d", req.Restarts, s.cfg.MaxRestarts)
		return
	}
	if req.Algorithm == "" {
		req.Algorithm = "BLS"
	}
	// Resolve the instance once, at admission: everything below — solve,
	// metrics, response dimensions — uses this one immutable snapshot, so a
	// concurrent hot-swap can never produce a torn response.
	entry, ok := s.catalog.Get(req.Instance)
	if !ok {
		fail(http.StatusNotFound, "error", "unknown instance %q", req.Instance)
		return
	}
	// Tracing is observational (bit-identical results), so attaching it —
	// the Debug log tracer, the restart-span tracer, or both — cannot
	// change answers. The span tracer is constructed unarmed here and armed
	// at solve start; until then (and with tracing disabled, where it is
	// nil) it ignores every event.
	var tracer core.Tracer
	if reqLog.Enabled(ctx, slog.LevelDebug) {
		tracer = obs.LogTracer{L: reqLog}
	}
	if lc.tracer != nil {
		if tracer != nil {
			tracer = obs.MultiTracer{lc.tracer, tracer}
		} else {
			tracer = lc.tracer
		}
	}
	// Resolve the warm-start incumbent against the same snapshot as the
	// solve: the store only answers with a plan recorded at exactly
	// entry.Generation (remapped through any PATCHes), so the seed can never
	// reference advertisers the snapshot does not have.
	var ws *core.WarmStart
	if req.WarmStart {
		ws = s.incumbentFor(entry)
	}
	alg, err := core.AlgorithmByNameOpts(req.Algorithm, core.LocalSearchOptions{
		Seed:             req.Seed,
		Restarts:         req.Restarts,
		ImprovementRatio: req.ImprovementRatio,
		Workers:          max(req.SearchWorkers, 1), // serial unless asked; the pool owns parallelism
		Tracer:           tracer,
		WarmStart:        ws,
	})
	if err != nil {
		fail(http.StatusBadRequest, "error", "%v", err)
		return
	}
	lc.noteTarget(entry.Name, alg.Name(), entry.Info.Model)

	// The effective deadline is computed before admission so the cache
	// fast path and the response echo share it. When it differs from what
	// the request asked for — a clamp to MaxDeadline, or a default applied
	// to a deadline-less request — it is echoed back instead of being
	// applied silently.
	requested := time.Duration(req.DeadlineMS) * time.Millisecond
	deadline := requested
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && (deadline == 0 || deadline > s.cfg.MaxDeadline) {
		deadline = s.cfg.MaxDeadline
	}
	var effDeadlineMS int64
	if deadline != requested {
		effDeadlineMS = deadline.Milliseconds()
	}

	// Cache fast path: a completed identical solve answers immediately,
	// without consuming a queue or worker token. The key carries the
	// snapshot's generation, so a hot-swapped instance is a natural miss.
	// Warm-started requests bypass the cache in both directions — their
	// effective input includes the incumbent, which the key does not carry,
	// so serving or storing them under the plain tuple would alias two
	// different computations.
	useCache := s.cache != nil && !req.WarmStart
	var key solvecache.Key
	if useCache {
		key = solvecache.Key{
			Instance:         entry.Name,
			Generation:       entry.Generation,
			Algorithm:        alg.Name(),
			Model:            entry.Info.Model,
			Seed:             req.Seed,
			Restarts:         req.Restarts,
			ImprovementRatio: req.ImprovementRatio,
		}
		// The greedy algorithms take no local-search options, so their
		// results do not depend on these three: requests that differ only
		// in them share one entry. The response reads none of them from
		// the request.
		switch alg.(type) {
		case core.GOrderAlgorithm, core.GGlobalAlgorithm:
			key.Seed, key.Restarts, key.ImprovementRatio = 0, 0, 0
		}
		lc.enterCacheLookup(time.Now())
		if res, age, ok := s.cache.Lookup(key); ok {
			latency := time.Since(admitted)
			s.metrics.observeRequest(req.Algorithm, entry.Name, entry.Info.Model, res, latency)
			lc.cacheHit(time.Now())
			s.finishSolve(w, logOutcome, lc, req, alg.Name(), entry, res, latency, true, age, effDeadlineMS)
			return
		}
	}
	lc.enterQueue(time.Now())

	// Admission. Every shed answers 429 with the reason labeled on the
	// rejection counter, echoed in X-Reject-Reason, and a Retry-After hint
	// derived from the current queue drain rate (backlog × mean worker-hold
	// time ÷ workers; 1s before any request has completed).
	reject := func(reason, format string, args ...any) {
		s.metrics.rejected.With(reason).Inc()
		w.Header().Set("X-Reject-Reason", reason)
		w.Header().Set("Retry-After",
			strconv.Itoa(retryAfterSeconds(s.backlog(), s.adm.workers, s.adm.serviceEstimate())))
		fail(http.StatusTooManyRequests, "shed_"+reason, format, args...)
	}

	// Per-instance occupancy: reserve the slot first (Add returns the new
	// value, so reservation and the fair-share check are one atomic step —
	// occupancy above the cap is never admitted), release it when the
	// request unwinds, whatever the outcome.
	inflight := s.metrics.instanceInflight.With(entry.Name)
	if n := inflight.Add(1); s.adm.policy == AdmitFair && n > int64(s.adm.fairShare) {
		inflight.Add(-1)
		reject(rejectFairness, "instance %q already holds its fair share (%d) of admission slots",
			entry.Name, s.adm.fairShare)
		return
	}
	defer inflight.Add(-1)

	// Deadline feasibility: shed a request whose solve budget would already
	// be spent by the time the current backlog drains to a worker, instead
	// of queueing it toward a degenerate truncated answer.
	if s.adm.policy == AdmitDeadline {
		if queued, svc := s.backlog(), s.adm.serviceEstimate(); !DeadlineFeasible(deadline, queued, s.adm.workers, svc) {
			reject(rejectDeadlineInfeasible,
				"deadline %v infeasible: estimated queue wait %v (%d queued, %d workers, ~%v per solve)",
				deadline, EstimatedQueueWait(queued, s.adm.workers, svc), queued, s.adm.workers, svc)
			return
		}
	}

	// Admission tokens. A request holds exactly one of the two at any
	// instant: an execution token while solving, or a waiting-room token
	// while blocked for one. The fast path claims a free worker directly —
	// with QueueDepth = 0 the waiting room has no capacity at all, and a
	// request either starts immediately or is shed.
	select {
	case s.workers <- struct{}{}:
		defer func() { <-s.workers }()
	default:
		// No worker free: enter the waiting room without blocking, or shed
		// load now.
		select {
		case s.queue <- struct{}{}:
		default:
			reject(rejectCapacity, "solver queue full")
			return
		}
		// Wait (bounded by the waiting-room capacity above) for an
		// execution slot, trading the queue token for the worker token at
		// acquisition. A client that gives up while queued abandons the
		// request without ever occupying a worker.
		select {
		case s.workers <- struct{}{}:
			<-s.queue
			defer func() { <-s.workers }()
		case <-ctx.Done():
			<-s.queue
			s.metrics.abandoned.Inc()
			fail(statusClientClosedRequest, "abandoned", "client closed request while queued")
			return
		}
	}

	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	start := time.Now()
	lc.enterSolve(start)
	var res *core.Anytime
	cached := false
	var age time.Duration
	if useCache {
		// Compute-once path: identical concurrent requests coalesce onto
		// one flight, which runs detached from every requester (bounded by
		// MaxDeadline) so an impatient client cannot starve the rest. This
		// request still waits under its own ctx.
		var info solvecache.Info
		for {
			inst := entry.Instance
			res, info = s.cache.Do(ctx, key, func(fctx context.Context) *core.Anytime {
				return s.cfg.solve(fctx, alg, inst)
			})
			if info.Outcome != solvecache.Stale {
				break
			}
			// A reload or PATCH replaced the snapshot admission resolved
			// and dropped its cached result: answer from the current
			// snapshot, so no build is solved twice.
			next, ok := s.catalog.Get(req.Instance)
			if !ok {
				fail(http.StatusNotFound, "error", "unknown instance %q", req.Instance)
				return
			}
			entry = next
			key.Generation, key.Model = entry.Generation, entry.Info.Model
			lc.noteTarget(entry.Name, alg.Name(), entry.Info.Model)
		}
		switch info.Outcome {
		case solvecache.Hit:
			cached, age = true, info.Age
		case solvecache.Followed:
			cached = true
		case solvecache.Expired:
			if r.Context().Err() == nil {
				// The request's own deadline fired while waiting on the
				// flight. Honor the anytime contract the uncached path
				// offers: solving under the already-expired ctx returns
				// the best-so-far truncated result immediately.
				res = s.cfg.solve(ctx, alg, entry.Instance)
			}
		}
	} else {
		res = s.cfg.solve(ctx, alg, entry.Instance)
	}
	latency := time.Since(start)
	// However the result was produced, this request held a worker slot for
	// `latency`: fold it into the drain-rate estimate behind deadline
	// feasibility and Retry-After.
	s.adm.observeService(latency)

	// A client that hung up mid-solve never saw an answer: count it as
	// abandoned and answer 499, exactly like a disconnect in the queue —
	// not as a completed 200 that skews the latency and regret series.
	if err := r.Context().Err(); err != nil {
		s.metrics.abandoned.Inc()
		fail(statusClientClosedRequest, "abandoned", "client closed request during solve")
		return
	}

	if cached {
		// The flight's solver work was (or will be) recorded by the
		// request that ran it; this request only contributes the
		// response-level series.
		s.metrics.observeRequest(req.Algorithm, entry.Name, entry.Info.Model, res, latency)
	} else {
		s.metrics.observe(req.Algorithm, entry.Name, entry.Info.Model, res, latency)
		// A computed, complete solve becomes the incumbent future
		// warm-started requests for this (instance, model) seed from.
		s.storeIncumbent(entry, res)
	}
	// The solve phase ends exactly where it started plus the measured
	// latency, keeping the span layout contiguous.
	lc.enterEncode(start.Add(latency), latency)
	s.finishSolve(w, logOutcome, lc, req, alg.Name(), entry, res, latency, cached, age, effDeadlineMS)
}

// finishSolve emits the one structured log line, the Server-Timing header
// and the SolveResponse body for a completed solve, whether it ran on this
// request's worker slot or was served from the cache, then completes the
// request's trace.
func (s *Server) finishSolve(w http.ResponseWriter, logOutcome func(int, ...any),
	lc *reqLifecycle, req SolveRequest, algName string, entry *catalog.Entry, res *core.Anytime,
	latency time.Duration, cached bool, age time.Duration, effDeadlineMS int64) {
	attrs := []any{
		"algorithm", algName,
		"instance", entry.Name,
		"generation", entry.Generation,
		"seed", req.Seed,
		"regret", res.TotalRegret,
		"restarts_completed", res.RestartsCompleted,
		"truncated", res.Truncated,
		"evals", res.Evals,
		"solve_ms", float64(latency.Microseconds()) / 1e3,
	}
	if cached {
		attrs = append(attrs, "cached", true)
	}
	logOutcome(http.StatusOK, attrs...)

	plan := res.Plan
	excess, unsat := plan.Breakdown()
	resp := SolveResponse{
		Algorithm:           algName,
		TotalRegret:         res.TotalRegret,
		Excess:              excess,
		Unsatisfied:         unsat,
		Revenue:             core.Revenue(plan),
		Satisfied:           plan.SatisfiedCount(),
		Advertisers:         entry.Instance.NumAdvertisers(),
		RestartsRequested:   res.RestartsRequested,
		RestartsCompleted:   res.RestartsCompleted,
		Truncated:           res.Truncated,
		Evals:               res.Evals,
		LatencyMS:           float64(latency.Microseconds()) / 1e3,
		EffectiveDeadlineMS: effDeadlineMS,
		Cached:              cached,
		CacheAgeMS:          float64(age.Microseconds()) / 1e3,
		WarmStarted:         res.WarmStarted,
		FrozenAdvertisers:   res.FrozenAdvertisers,
	}
	if req.Instance != "" {
		// Echo the snapshot identity only for requests that opted into
		// instance selection; the default-instance body stays byte-
		// compatible with the single-instance wire format.
		resp.Instance = entry.Name
		resp.Generation = entry.Generation
		resp.Model = entry.Info.Model
	}
	if entry.Info.Model != "" && entry.Info.Model != core.ModelBase {
		// A variant answer is always labeled, even on the default instance —
		// the numbers are not comparable to base-model output.
		resp.Model = entry.Info.Model
	}
	if req.IncludeAssignments {
		resp.Assignments = make([][]int, entry.Instance.NumAdvertisers())
		for i := range resp.Assignments {
			resp.Assignments[i] = plan.Set(i, []int{})
		}
	}
	w.Header().Set("Server-Timing", lc.serverTiming())
	writeJSON(w, http.StatusOK, resp)
	outcome := "served"
	if res.Truncated {
		outcome = "served_truncated"
	}
	lc.finish(http.StatusOK, outcome)
}

// statusClientClosedRequest is nginx's non-standard 499 — the closest thing
// to a status for "the client hung up while we were still queueing".
const statusClientClosedRequest = 499

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	body := map[string]any{
		"status":      "ok",
		"workers":     s.cfg.Workers,
		"queue_depth": s.cfg.QueueDepth,
		"instances":   s.catalog.Len(),
		"admission":   s.adm.policy,
		"fair_share":  s.adm.fairShare,
	}
	// billboards/advertisers report the default instance's dimensions, as
	// they did when the server held exactly one instance.
	if e, ok := s.catalog.Get(""); ok {
		body["default"] = e.Name
		body["billboards"] = e.Instance.Universe().NumBillboards()
		body["advertisers"] = e.Instance.NumAdvertisers()
		body["corridors"] = e.Info.Corridors
		body["compression_ratio"] = e.Info.CompressionRatio
		body["model"] = e.Instance.Model().Kind()
	}
	writeJSON(w, http.StatusOK, body)
}

// InstanceInfo is the JSON description of one loaded instance, served by the
// /instances admin endpoints.
type InstanceInfo struct {
	Name       string            `json:"name"`
	Generation uint64            `json:"generation"`
	Default    bool              `json:"default,omitempty"`
	Spec       catalog.Spec      `json:"spec"`
	Info       catalog.BuildInfo `json:"info"`
}

func (s *Server) instanceInfo(e *catalog.Entry) InstanceInfo {
	return InstanceInfo{
		Name:       e.Name,
		Generation: e.Generation,
		Default:    e.Name == s.catalog.DefaultName(),
		Spec:       e.Spec,
		Info:       e.Info,
	}
}

func (s *Server) handleInstancesList(w http.ResponseWriter, r *http.Request) {
	entries := s.catalog.List()
	infos := make([]InstanceInfo, len(entries))
	for i, e := range entries {
		infos[i] = s.instanceInfo(e)
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleInstancePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := catalog.ValidateName(name); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var spec catalog.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decode spec: %v", err)
		return
	}
	if spec.Name != "" && spec.Name != name {
		writeError(w, http.StatusBadRequest,
			"spec name %q disagrees with URL name %q", spec.Name, name)
		return
	}
	_, existed := s.catalog.Get(name)
	start := time.Now()
	e, err := s.catalog.Load(name, spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "build instance: %v", err)
		return
	}
	s.metrics.reloads.Inc()
	if s.cache != nil && existed {
		// Requests that resolved a replaced generation may still be on
		// their way to the cache: raising the floor makes them re-resolve
		// rather than solve the dead build again, and dropping its entries
		// returns their capacity immediately.
		s.cache.InvalidateInstance(name, e.Generation)
	}
	// A reload rebuilds the advertiser set from scratch — no index mapping
	// survives, so any incumbent plans for the name are dead.
	s.dropIncumbents(name)
	s.log.Info("instance loaded",
		"instance", e.Name,
		"generation", e.Generation,
		"reload", existed,
		"billboards", e.Info.Billboards,
		"advertisers", e.Info.Advertisers,
		"universe", e.UniverseOrigin(),
		"build_ms", float64(time.Since(start).Microseconds())/1e3)
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	writeJSON(w, status, s.instanceInfo(e))
}

func (s *Server) handleInstanceDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	old, _ := s.catalog.Get(name)
	err := s.catalog.Delete(name)
	switch {
	case errors.Is(err, catalog.ErrNotFound):
		writeError(w, http.StatusNotFound, "unknown instance %q", name)
		return
	case errors.Is(err, catalog.ErrDefaultDelete):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// Retire the deleted instance's metric series; if the name is ever
	// reloaded its counter restarts at zero (the Prometheus reset semantic).
	s.metrics.instanceReqs.Delete(name)
	s.metrics.instanceInflight.Delete(name)
	if s.cache != nil && old != nil {
		// Any later entry under the name is a new build with a larger
		// generation. (old is nil only when the name was created between
		// the Get and the Delete; its entries then age out via LRU.)
		s.cache.InvalidateInstance(name, old.Generation+1)
	}
	s.dropIncumbents(name)
	s.log.Info("instance deleted", "instance", name)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.metrics.snapshot(s.backlog()))
}
