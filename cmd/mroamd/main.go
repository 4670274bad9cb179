// Command mroamd serves MROAM solves over HTTP: it preloads a catalog of
// named instances at startup and answers POST /solve requests with
// per-request instance, algorithm and deadline selection on top of the
// anytime solve engine.
//
// Usage:
//
//	mroamd -addr :8080 -city NYC -scale 0.25 -seed 42
//	mroamd -addr :8080 -instances specs.json
//	mroamd -addr :8080 -ops-addr 127.0.0.1:8081 -workers 4 -queue 8
//	mroamd -addr :8080 -cache-entries 256
//	mroamd -addr :8080 -admission deadline
//	mroamd -addr :8080 -admission fair -fair-share 4
//	mroamd -addr :8080 -trace-store 1024 -trace-keep-slowest 0.1
//
//	curl -s localhost:8080/solve -d '{"algorithm":"BLS","restarts":5,"deadline_ms":100}'
//	curl -s localhost:8080/solve -d '{"instance":"sg","algorithm":"BLS"}'
//	curl -s localhost:8080/instances
//	curl -s -X PUT localhost:8080/instances/sg -d '{"city":"SG","scale":0.25}'
//	curl -s -X PUT localhost:8080/instances/z -d '{"city":"NYC","model":{"kind":"zonal","zone_cap":40}}'
//	curl -s localhost:8080/stats
//	curl -s localhost:8081/metrics
//	curl -s 'localhost:8081/debug/traces?outcome=served&min_duration_ms=100'
//	curl -s localhost:8081/debug/traces/4bf92f3577b34da6a3ce929d0e0e4736
//
// Instances carry a regret model: the base MROAM objective by default, or
// the zonal variant (-model zonal -zone-cap N, or a {"model": {...}} block
// in a spec) capping each advertiser's counted influence per geographic
// zone. Responses for variant instances echo the model kind, and
// mroamd_requests_total and /debug/traces are labeled by it.
//
// Without -instances the dataset/market flags describe a single instance
// named "default", preserving the original single-instance behavior. With
// -instances the given JSON file (an array of named catalog specs) is built
// into the catalog and the first spec becomes the default. Either way the
// /instances admin endpoints can list, hot-swap and delete instances at
// runtime without interrupting in-flight solves.
//
// The optional -ops-addr listener carries the operational surface —
// /metrics (Prometheus text exposition), /debug/pprof/*, /debug/vars
// (expvar) and /buildinfo — so profilers and scrapers never compete with
// solve traffic and the debug endpoints can be bound to localhost while
// the API listens publicly. /metrics is also served on the API listener
// for single-port deployments.
//
// Admission defaults to shed-don't-queue: a request that cannot take a
// queue slot answers 429 immediately. -admission deadline additionally
// sheds requests whose solve deadline the queue's measured drain rate
// provably cannot meet, and -admission fair caps one instance's share of
// the queue (-fair-share) so a hot market cannot starve the fleet. Every
// shed is labeled by reason in mroamd_requests_rejected_total and carries a
// Retry-After header derived from the current drain rate.
//
// With -cache-entries N the daemon memoizes up to N completed untruncated
// solve results by their deterministic request tuple (instance + catalog
// generation, algorithm, seed, restarts, improvement ratio): repeats are
// answered from cache ("cached": true in the response) and identical
// concurrent requests coalesce onto a single solver execution. Caching is
// off by default, preserving the exact pre-cache behavior.
//
// Every /solve request is traced through its lifecycle phases (admission,
// queue wait, cache lookup, solve with per-restart child spans, encode):
// responses carry Server-Timing headers, the request continues a client's
// W3C traceparent (the trace ID doubles as X-Request-ID), and completed
// traces land in a bounded in-daemon span store served on /debug/traces.
// The store tail-samples plain served traces, always keeping errors, sheds,
// truncations and the slowest quantile (-trace-keep-slowest). -trace-store 0
// disables tracing entirely; the request path then mints no span IDs and
// solve results are bit-identical (tracing is observational).
//
// All daemon output is structured logging (one JSON object per line via
// log/slog): a startup record, one record per /solve request carrying the
// request ID, outcome and latency, and a shutdown record. -log-level debug
// additionally logs per-restart solver trace events.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, queued
// and in-flight solves drain (bounded by -drain), then the process exits.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "mroamd:", err)
		os.Exit(1)
	}
}

// addrs is the readiness signal: the bound API address and, when -ops-addr
// was given, the bound ops address ("" otherwise).
type addrs struct {
	api string
	ops string
}

// run parses flags, builds the instance and serves until a signal arrives.
// ready, when non-nil, receives the bound addresses once the listeners are
// up (tests use it); the returned error is nil on a clean drained shutdown.
func run(args []string, out io.Writer, ready chan<- addrs) error {
	fs := flag.NewFlagSet("mroamd", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":8080", "listen address for the solve API")
	opsAddr := fs.String("ops-addr", "", "listen address for the ops surface: /metrics, /debug/pprof, /debug/vars, /debug/traces, /buildinfo (empty = disabled)")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error (debug adds per-restart solver trace events)")
	instances := fs.String("instances", "", "JSON file of named instance specs to preload (first entry is the default); replaces the dataset/market flags")
	specFlags := catalog.Bind(fs, catalog.FieldsAll, catalog.DefaultSpec())
	workers := fs.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
	queue := fs.Int("queue", -1, "queued requests beyond the workers (-1 = 2×workers); overflow answers 429")
	admission := fs.String("admission", server.AdmitShed, "admission policy: shed (reject only when the queue is full), deadline (also shed requests whose deadline the queue provably cannot meet), fair (also cap one instance's share of the queue)")
	fairShare := fs.Int("fair-share", 0, "max admission slots one instance may hold under -admission fair (0 = half the capacity, rounded up)")
	defaultDeadline := fs.Duration("default-deadline", 0, "deadline applied when a request omits deadline_ms (0 = none)")
	maxDeadline := fs.Duration("max-deadline", 5*time.Minute, "cap on per-request deadlines (0 = none)")
	maxRestarts := fs.Int("max-restarts", server.DefaultMaxRestarts, "cap on per-request restart budgets")
	cacheEntries := fs.Int("cache-entries", 0, "completed solve results to cache by request tuple, with identical concurrent requests coalesced (0 = caching disabled)")
	traceStore := fs.Int("trace-store", 512, "completed request traces to retain for /debug/traces (0 = span tracing disabled)")
	traceKeep := fs.Float64("trace-keep-slowest", 0, "fraction of plain served traces tail sampling keeps — errors, sheds and truncations are always kept (0 = default "+fmt.Sprintf("%g", obs.DefaultTraceKeepSlowest)+", 1 = keep everything)")
	drain := fs.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight solves")
	if err := fs.Parse(args); err != nil {
		return err
	}

	level, err := parseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(out, level)

	cat, err := buildCatalog(*instances, specFlags.Spec(), fs, logger)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Catalog:          cat,
		Workers:          *workers,
		QueueDepth:       *queue,
		DefaultDeadline:  *defaultDeadline,
		MaxDeadline:      *maxDeadline,
		MaxRestarts:      *maxRestarts,
		CacheEntries:     *cacheEntries,
		Admission:        *admission,
		FairShare:        *fairShare,
		TraceCapacity:    *traceStore,
		TraceKeepSlowest: *traceKeep,
		Logger:           logger,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	var opsSrv *http.Server
	opsBound := ""
	if *opsAddr != "" {
		opsLn, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("ops listener: %w", err)
		}
		opsBound = opsLn.Addr().String()
		opsSrv = &http.Server{
			Handler:           opsMux(srv),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := opsSrv.Serve(opsLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("ops listener failed", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The listeners are live as soon as net.Listen returns (connections
	// queue in the accept backlog), so the startup record and readiness
	// signal happen here.
	def, _ := cat.Get("")
	logger.Info("serving",
		"instances", cat.Len(),
		"default", def.Name,
		"billboards", def.Info.Billboards,
		"advertisers", def.Info.Advertisers,
		"admission", *admission,
		"addr", ln.Addr().String(),
		"ops_addr", opsBound)
	if ready != nil {
		ready <- addrs{api: ln.Addr().String(), ops: opsBound}
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}

	logger.Info("shutting down, draining in-flight solves")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if opsSrv != nil {
		defer opsSrv.Close() // ops requests are cheap; no need to drain them
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// opsMux assembles the operational surface. It is a separate handler tree
// from the API so the profiling endpoints can be bound to a loopback-only
// listener in deployments where the API port is public.
func opsMux(srv *server.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", srv.MetricsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/debug/traces", srv.TracesHandler())
	mux.Handle("/debug/traces/{id}", srv.TracesHandler())
	mux.HandleFunc("/buildinfo", handleBuildInfo)
	return mux
}

func handleBuildInfo(w http.ResponseWriter, _ *http.Request) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		http.Error(w, "build info unavailable", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, bi.String())
}

// buildCatalog assembles the daemon's instance fleet: either the single
// "default" instance the dataset/market flags describe, or every spec in
// the -instances file (whose first entry becomes the default).
func buildCatalog(instancesPath string, flagSpec catalog.Spec, fs *flag.FlagSet, logger *slog.Logger) (*catalog.Catalog, error) {
	cat := catalog.New()
	if instancesPath == "" {
		e, err := cat.Load("default", flagSpec)
		if err != nil {
			return nil, err
		}
		logInstance(logger, e)
		return cat, nil
	}
	// A fleet file owns the instance definitions; silently ignoring the
	// per-instance flags would hide a misconfiguration.
	var clash []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "city", "data", "scale", "seed", "alpha", "p", "gamma", "lambda",
			"model", "zone-cap", "zone-meters":
			clash = append(clash, "-"+f.Name)
		}
	})
	if len(clash) > 0 {
		return nil, fmt.Errorf("-instances conflicts with %s: the specs file defines each instance", strings.Join(clash, ", "))
	}
	specs, err := catalog.ReadSpecsFile(instancesPath)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		e, err := cat.Load(spec.Name, spec)
		if err != nil {
			return nil, fmt.Errorf("instance %q: %w", spec.Name, err)
		}
		logInstance(logger, e)
	}
	return cat, nil
}

func logInstance(logger *slog.Logger, e *catalog.Entry) {
	logger.Info("instance loaded",
		"instance", e.Name,
		"generation", e.Generation,
		"billboards", e.Info.Billboards,
		"advertisers", e.Info.Advertisers,
		"params", e.Spec.Describe(),
		"universe", e.UniverseOrigin(),
		"build_ms", e.Info.BuildMS)
}
