# Development entry points for the MROAM reproduction.

GO ?= go

.PHONY: all build test test-race vet fmt lint bench bench-kernels bench-build bench-json bench-serving scale-smoke repro examples clean check fuzz-smoke trace-demo catalog-demo cache-demo load-smoke trace-smoke variant-smoke churn-smoke

all: build test

# The full pre-merge gate: build, lint (format + vet), the race-detector
# suite, a short smoke run of every fuzz target, the serving demos
# (multi-instance catalog, solve-result cache, reproducible load harness),
# and the paper-scale coverage smoke.
check: build lint test-race fuzz-smoke catalog-demo cache-demo load-smoke trace-smoke variant-smoke churn-smoke scale-smoke

build:
	$(GO) build ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# cannot hide; failures print the seed to reproduce.
test:
	$(GO) test -shuffle=on ./...

# The parallel restart engine must stay race-clean at any worker count.
test-race:
	$(GO) test -race -shuffle=on ./...

# Run each native fuzz target for 10s against its checked-in seed corpus
# (go test accepts one -fuzz pattern per package invocation).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPlanRoundTrip$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzFeasibilityFirstScans$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSwapDeltaMerge$$' -fuzztime 10s ./internal/coverage
	$(GO) test -run '^$$' -fuzz '^FuzzCorridorAssigner$$' -fuzztime 10s ./internal/coverage
	$(GO) test -run '^$$' -fuzz '^FuzzReadSpecs$$' -fuzztime 10s ./internal/catalog
	$(GO) test -run '^$$' -fuzz '^FuzzSpecValidate$$' -fuzztime 10s ./internal/catalog
	$(GO) test -run '^$$' -fuzz '^FuzzPatchOps$$' -fuzztime 10s ./internal/catalog
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceparent$$' -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzParseServerTiming$$' -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzGridWithin$$' -fuzztime 10s ./internal/geo
	$(GO) test -run '^$$' -fuzz '^FuzzTripDraw$$' -fuzztime 10s ./internal/dataset

vet:
	$(GO) vet ./...

# lint fails if any file is not gofmt-clean, then runs go vet; no output
# means clean.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# trace-demo runs one traced solve and asserts the JSONL trajectory is
# non-empty and ends with a done record — a smoke test for the tracing
# pipeline an operator can run before wiring dashboards to it.
trace-demo:
	$(GO) run ./cmd/mroam solve -scale 0.05 -alg BLS -restarts 4 -workers 4 \
		-trace /tmp/mroam-trace.jsonl
	@test -s /tmp/mroam-trace.jsonl || { echo "trace-demo: empty trace"; exit 1; }
	@tail -1 /tmp/mroam-trace.jsonl | grep -q '"event":"done"' \
		|| { echo "trace-demo: missing done record"; exit 1; }
	@wc -l < /tmp/mroam-trace.jsonl | xargs echo "trace-demo: OK, events:"

# catalog-demo boots the daemon with the two-instance fleet file, solves
# against each named instance, and hot-swaps one over the admin API — an
# end-to-end smoke test of multi-instance serving an operator can run
# before deploying a fleet config.
CATALOG_DEMO_ADDR ?= 127.0.0.1:18321
catalog-demo:
	@$(GO) build -o /tmp/mroamd-demo ./cmd/mroamd
	@/tmp/mroamd-demo -addr $(CATALOG_DEMO_ADDR) -instances testdata/catalog-demo.json \
		-workers 2 > /tmp/mroamd-demo.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	up=0; \
	for i in $$(seq 1 100); do \
		curl -sf http://$(CATALOG_DEMO_ADDR)/healthz >/dev/null && { up=1; break; }; \
		sleep 0.2; \
	done; \
	[ $$up -eq 1 ] || { echo "catalog-demo: daemon never came up"; cat /tmp/mroamd-demo.log; exit 1; }; \
	curl -s -d '{"instance":"nyc","algorithm":"G-Order"}' http://$(CATALOG_DEMO_ADDR)/solve \
		| grep -q '"instance": "nyc"' || { echo "catalog-demo: nyc solve failed"; exit 1; }; \
	curl -s -d '{"instance":"sg","algorithm":"G-Order"}' http://$(CATALOG_DEMO_ADDR)/solve \
		| grep -q '"instance": "sg"' || { echo "catalog-demo: sg solve failed"; exit 1; }; \
	curl -s -X PUT -d '{"city":"NYC","scale":0.02,"seed":9,"alpha":2.0,"p":0.1}' \
		http://$(CATALOG_DEMO_ADDR)/instances/nyc \
		| grep -q '"generation": 3' || { echo "catalog-demo: nyc hot-swap failed"; exit 1; }; \
	curl -s -d '{"instance":"nyc","algorithm":"G-Order"}' http://$(CATALOG_DEMO_ADDR)/solve \
		| grep -q '"generation": 3' || { echo "catalog-demo: post-swap solve failed"; exit 1; }; \
	echo "catalog-demo: OK (2 instances served, 1 hot-swapped)"

# cache-demo boots the daemon with the solve-result cache enabled, runs the
# same solve twice, and asserts the second is answered from cache — the
# smoke test an operator can run before turning -cache-entries on in a
# deployment.
CACHE_DEMO_ADDR ?= 127.0.0.1:18341
cache-demo:
	@$(GO) build -o /tmp/mroamd-cache-demo ./cmd/mroamd
	@/tmp/mroamd-cache-demo -addr $(CACHE_DEMO_ADDR) -scale 0.02 -workers 2 \
		-cache-entries 64 > /tmp/mroamd-cache-demo.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	up=0; \
	for i in $$(seq 1 100); do \
		curl -sf http://$(CACHE_DEMO_ADDR)/healthz >/dev/null && { up=1; break; }; \
		sleep 0.2; \
	done; \
	[ $$up -eq 1 ] || { echo "cache-demo: daemon never came up"; cat /tmp/mroamd-cache-demo.log; exit 1; }; \
	first=$$(curl -s -d '{"algorithm":"BLS","restarts":2,"seed":7}' http://$(CACHE_DEMO_ADDR)/solve); \
	echo "$$first" | grep -q '"total_regret"' || { echo "cache-demo: first solve failed: $$first"; exit 1; }; \
	echo "$$first" | grep -q '"cached"' && { echo "cache-demo: first solve claims cached"; exit 1; }; \
	second=$$(curl -s -d '{"algorithm":"BLS","restarts":2,"seed":7}' http://$(CACHE_DEMO_ADDR)/solve); \
	echo "$$second" | grep -q '"cached": true' || { echo "cache-demo: repeat not cached: $$second"; exit 1; }; \
	curl -s http://$(CACHE_DEMO_ADDR)/metrics \
		| grep -q 'mroamd_solve_cache_events_total{event="hit"} 1' \
		|| { echo "cache-demo: hit not counted"; exit 1; }; \
	echo "cache-demo: OK (repeat solve served from cache)"

# load-smoke is the serving-layer reproducibility gate in `check`: the same
# seeded 2-second workload is replayed twice through mroamload's bench mode
# (each replay boots a fresh mroamd per admission policy). The two recorded
# request traces must be byte-identical — the harness determinism contract —
# and the report must carry a well-formed counterfactual-regret summary.
load-smoke:
	@$(GO) build -o /tmp/mroamd-load ./cmd/mroamd
	@$(GO) build -o /tmp/mroamload ./cmd/mroamload
	@/tmp/mroamload -mroamd /tmp/mroamd-load -policies shed,deadline \
		-seed 7 -duration 2s -rate 40 -algorithms G-Order -deadlines 0,40 \
		-mroamd-args "-scale 0.02 -workers 2 -queue 2" \
		-trace-out /tmp/mroam-load-1.jsonl -o /tmp/mroam-load-1.json
	@/tmp/mroamload -mroamd /tmp/mroamd-load -policies shed,deadline \
		-seed 7 -duration 2s -rate 40 -algorithms G-Order -deadlines 0,40 \
		-mroamd-args "-scale 0.02 -workers 2 -queue 2" \
		-trace-out /tmp/mroam-load-2.jsonl -o /tmp/mroam-load-2.json
	@cmp -s /tmp/mroam-load-1.jsonl /tmp/mroam-load-2.jsonl \
		|| { echo "load-smoke: same seed produced different traces"; exit 1; }
	@grep -q '"counterfactuals"' /tmp/mroam-load-1.json \
		&& grep -q '"regret"' /tmp/mroam-load-1.json \
		&& grep -q '"alternative": "fair"' /tmp/mroam-load-1.json \
		|| { echo "load-smoke: report missing counterfactual summary"; exit 1; }
	@wc -l < /tmp/mroam-load-1.jsonl | xargs echo "load-smoke: OK, byte-identical traces, requests:"

# trace-smoke is the request-tracing gate in `check`: boot mroamd with the
# span store enabled, replay a short seeded workload through mroamload with
# -trace-check, and require that the slowest trace fetched back from
# GET /debug/traces/{id} validates — a single request root covering at least
# 4 lifecycle phases whose durations sum to the root within tolerance. The
# report must also carry the Server-Timing phase attribution and the
# daemon's /metrics must expose the new phase histograms.
TRACE_SMOKE_ADDR ?= 127.0.0.1:18361
trace-smoke:
	@$(GO) build -o /tmp/mroamd-trace ./cmd/mroamd
	@$(GO) build -o /tmp/mroamload-trace ./cmd/mroamload
	@/tmp/mroamd-trace -addr $(TRACE_SMOKE_ADDR) -scale 0.02 -workers 2 -queue 4 \
		-trace-store 256 -trace-keep-slowest 1 > /tmp/mroamd-trace.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	up=0; \
	for i in $$(seq 1 100); do \
		curl -sf http://$(TRACE_SMOKE_ADDR)/healthz >/dev/null && { up=1; break; }; \
		sleep 0.2; \
	done; \
	[ $$up -eq 1 ] || { echo "trace-smoke: daemon never came up"; cat /tmp/mroamd-trace.log; exit 1; }; \
	/tmp/mroamload-trace -target http://$(TRACE_SMOKE_ADDR) \
		-seed 7 -duration 500ms -rate 40 -algorithms G-Order \
		-trace-check 1 -o /tmp/mroam-trace-smoke.json \
		|| { echo "trace-smoke: replay or trace validation failed"; exit 1; }; \
	grep -q '"server_phases"' /tmp/mroam-trace-smoke.json \
		&& grep -q '"trace_checks"' /tmp/mroam-trace-smoke.json \
		|| { echo "trace-smoke: report missing phase attribution"; exit 1; }; \
	curl -s http://$(TRACE_SMOKE_ADDR)/metrics \
		| grep -q 'mroamd_solve_phase_seconds_count{phase="solve"}' \
		|| { echo "trace-smoke: phase histogram missing from /metrics"; exit 1; }; \
	grep -A1 '"trace_checks"' /tmp/mroam-trace-smoke.json | tail -1 | sed 's/^ *//;s/"//g'; \
	echo "trace-smoke: OK (slowest trace validated end-to-end)"

# variant-smoke is the regret-model gate in `check`: boot the daemon on the
# base+zonal fleet file, solve the zonal instance with BLS and G-Global and
# require the responses to echo the model kind; validate the same zonal
# build's plans against the per-zone caps through `mroam plan` (whose
# Plan.Validate consults the zonal model — the fixture cap 10 demonstrably
# binds, see TestBuildZonal); require the daemon's log to show the zonal
# entry reusing the base entry's universe (universe=shared:base) rather than
# rebuilding it; and replay the unnamed base solve against the pre-refactor
# golden, which must match byte-for-byte (latency aside) — proof the model
# seam left base output untouched.
VARIANT_SMOKE_ADDR ?= 127.0.0.1:18371
variant-smoke:
	@$(GO) build -o /tmp/mroamd-variant ./cmd/mroamd
	@$(GO) build -o /tmp/mroam-variant ./cmd/mroam
	@/tmp/mroam-variant plan -city NYC -scale 0.02 -seed 5 -alpha 2.0 -p 0.1 \
		-model zonal -zone-cap 10 -alg BLS -restarts 2 -top 0 \
		| grep -q 'zonal caps hold: cap 10' \
		|| { echo "variant-smoke: BLS zonal plan failed cap validation"; exit 1; }
	@/tmp/mroam-variant plan -city NYC -scale 0.02 -seed 5 -alpha 2.0 -p 0.1 \
		-model zonal -zone-cap 10 -alg G-Global -top 0 \
		| grep -q 'zonal caps hold: cap 10' \
		|| { echo "variant-smoke: G-Global zonal plan failed cap validation"; exit 1; }
	@/tmp/mroamd-variant -addr $(VARIANT_SMOKE_ADDR) -instances testdata/variant-demo.json \
		-workers 2 > /tmp/mroamd-variant.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	up=0; \
	for i in $$(seq 1 100); do \
		curl -sf http://$(VARIANT_SMOKE_ADDR)/healthz >/dev/null && { up=1; break; }; \
		sleep 0.2; \
	done; \
	[ $$up -eq 1 ] || { echo "variant-smoke: daemon never came up"; cat /tmp/mroamd-variant.log; exit 1; }; \
	grep -q '"instance":"zonal".*"universe":"shared:base"' /tmp/mroamd-variant.log \
		|| { echo "variant-smoke: zonal entry did not share the base entry's universe"; cat /tmp/mroamd-variant.log; exit 1; }; \
	curl -s -d '{"instance":"zonal","algorithm":"BLS","restarts":2,"seed":7}' \
		http://$(VARIANT_SMOKE_ADDR)/solve | grep -q '"model": "zonal"' \
		|| { echo "variant-smoke: BLS response missing zonal model echo"; exit 1; }; \
	curl -s -d '{"instance":"zonal","algorithm":"G-Global"}' \
		http://$(VARIANT_SMOKE_ADDR)/solve | grep -q '"model": "zonal"' \
		|| { echo "variant-smoke: G-Global response missing zonal model echo"; exit 1; }; \
	curl -s -d '{"algorithm":"BLS","restarts":2,"seed":7}' http://$(VARIANT_SMOKE_ADDR)/solve \
		| sed 's/"latency_ms": [0-9.eE+-]*/"latency_ms": 0/' > /tmp/mroam-variant-base.json; \
	cmp -s /tmp/mroam-variant-base.json testdata/variant-base-solve.golden \
		|| { echo "variant-smoke: base solve drifted from pre-refactor golden:"; \
		     diff testdata/variant-base-solve.golden /tmp/mroam-variant-base.json; exit 1; }; \
	echo "variant-smoke: OK (zonal caps hold, universe shared, model echoed, base output byte-identical)"

# churn-smoke is the delta-solve gate in `check`: boot mroamd with the solve
# cache on, establish an incumbent plan, PATCH the live market (remove one
# advertiser, revise another, admit a new one), and require (a) the repeat
# pre-patch solve was answered from cache, (b) the PATCH invalidated that
# entry — the post-patch plain solve is a miss, (c) a "warm_start": true
# solve of the patched market reports warm_started, and (d) the warm
# response is byte-identical to the cold solve of the same patched market
# once volatile fields (latency, evals) are normalized away — the
# end-to-end delta-solve contract of DESIGN.md §16 over HTTP.
CHURN_SMOKE_ADDR ?= 127.0.0.1:18381
churn-smoke:
	@$(GO) build -o /tmp/mroamd-churn ./cmd/mroamd
	@/tmp/mroamd-churn -addr $(CHURN_SMOKE_ADDR) -scale 0.02 -workers 2 \
		-cache-entries 64 > /tmp/mroamd-churn.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	up=0; \
	for i in $$(seq 1 100); do \
		curl -sf http://$(CHURN_SMOKE_ADDR)/healthz >/dev/null && { up=1; break; }; \
		sleep 0.2; \
	done; \
	[ $$up -eq 1 ] || { echo "churn-smoke: daemon never came up"; cat /tmp/mroamd-churn.log; exit 1; }; \
	first=$$(curl -s -d '{"algorithm":"BLS","restarts":2,"seed":7}' http://$(CHURN_SMOKE_ADDR)/solve); \
	echo "$$first" | grep -q '"total_regret"' || { echo "churn-smoke: incumbent solve failed: $$first"; exit 1; }; \
	curl -s -d '{"algorithm":"BLS","restarts":2,"seed":7}' http://$(CHURN_SMOKE_ADDR)/solve \
		| grep -q '"cached": true' || { echo "churn-smoke: pre-patch repeat not served from cache"; exit 1; }; \
	curl -s -X PATCH http://$(CHURN_SMOKE_ADDR)/instances/default/advertisers \
		-d '{"ops":[{"op":"remove","advertiser":3},{"op":"revise","advertiser":0,"demand":40},{"op":"add","demand":25,"payment":25}]}' \
		| grep -q '"generation": 2' || { echo "churn-smoke: patch failed"; exit 1; }; \
	curl -s -d '{"algorithm":"BLS","restarts":2,"seed":7,"warm_start":true,"include_assignments":true}' \
		http://$(CHURN_SMOKE_ADDR)/solve > /tmp/mroam-churn-warm.json; \
	grep -q '"warm_started": true' /tmp/mroam-churn-warm.json \
		|| { echo "churn-smoke: post-patch solve did not warm-start"; cat /tmp/mroam-churn-warm.json; exit 1; }; \
	cold=$$(curl -s -d '{"algorithm":"BLS","restarts":2,"seed":7,"include_assignments":true}' \
		http://$(CHURN_SMOKE_ADDR)/solve); \
	echo "$$cold" | grep -q '"cached"' && { echo "churn-smoke: PATCH left a stale cache entry"; exit 1; }; \
	printf '%s\n' "$$cold" > /tmp/mroam-churn-cold.json; \
	for f in /tmp/mroam-churn-warm.json /tmp/mroam-churn-cold.json; do \
		sed -e 's/"latency_ms": [0-9.eE+-]*/"latency_ms": 0/' \
		    -e 's/"evals": [0-9]*/"evals": 0/' \
		    -e '/"warm_started"/d' -e '/"frozen_advertisers"/d' \
		    $$f > $$f.norm; \
	done; \
	cmp -s /tmp/mroam-churn-warm.json.norm /tmp/mroam-churn-cold.json.norm \
		|| { echo "churn-smoke: warm plan drifted from cold solve of the patched market:"; \
		     diff /tmp/mroam-churn-cold.json.norm /tmp/mroam-churn-warm.json.norm; exit 1; }; \
	echo "churn-smoke: OK (cache hit pre-patch, miss after invalidation, warm == cold on the patched market)"

# One benchmark per table/figure of the paper plus ablations; see
# EXPERIMENTS.md for a recorded run. -run=^$ skips the unit tests so the
# suite measures only benchmark iterations.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# bench-kernels reproduces the solver-kernel numbers recorded in CHANGES.md
# and DESIGN.md §5: the coverage Counter's Gain (a table read), Add+Remove
# (which keeps that table current) and SwapDelta, the from-scratch
# UnionCount reference evaluator, G-Global's billboard selection (the scan
# that skips remembered CanAssign rejections) and one BLS improvement
# (CanSwap before SwapDelta), each on a base and a zonal market, and
# G-Global on a generated, corridor-compressed NYC universe, where
# corridor numbering sets the kernels' memory access pattern.
bench-kernels:
	$(GO) test -run '^$$' -bench '^(BenchmarkCounterGain|BenchmarkCounterAddRemove|BenchmarkSwapDelta|BenchmarkUnionCount)$$' \
		-benchmem ./internal/coverage
	$(GO) test -run '^$$' -bench '^(BenchmarkSynchronousGreedySelection|BenchmarkBillboardLocalSearch|BenchmarkGGlobalNYC)$$' \
		-benchmem ./internal/core

# bench-build reproduces the build-layer numbers recorded in CHANGES.md and
# DESIGN.md §12: filling the cell-ordered grid, one λ-radius query against
# it, and the fused streaming build (generation, chunked join, corridor
# assignment) on 50k paper-scale NYC trips and on the default NYC tier
# (40k trips, 400 billboards), the build mroamd runs per fleet entry.
bench-build:
	$(GO) test -run '^$$' -bench '^(BenchmarkGridBuild|BenchmarkGridWithin)$$' -benchmem ./internal/geo
	$(GO) test -run '^$$' -bench '^BenchmarkGenerateUniverse$$' -benchmem ./internal/dataset

# bench-json regenerates BENCH_coverage.json — the recorded evidence for
# the compressed coverage substrate (build/compress/solve times, memory,
# compression ratio at 50k/500k/1.7M trajectories) — and BENCH_serving.json
# via bench-serving. The 1.7M rung takes a few minutes; the dense BLS
# baseline runs up to 500k.
bench-json: bench-serving
	$(GO) run ./cmd/mroambench -sizes 50000,500000,1700000 -dense-max 500000 \
		-out BENCH_coverage.json

# bench-serving regenerates BENCH_serving.json — the recorded serving-layer
# evidence: one seeded 2-second burst replay per admission policy (shed,
# deadline, fair) against a freshly booted mroamd, each with outcome and
# latency distributions plus the counterfactual-regret summary. The restart
# budget is set high enough that BLS solves hold a worker for tens of
# milliseconds; combined with the 4x burst peaks this genuinely overloads
# the 2-worker pool, so the recorded runs show sheds and non-zero regret
# rather than an idle server.
bench-serving:
	$(GO) build -o /tmp/mroamd-bench ./cmd/mroamd
	$(GO) run ./cmd/mroamload -mroamd /tmp/mroamd-bench -policies shed,deadline,fair \
		-seed 42 -duration 2s -rate 120 -arrival burst -algorithms G-Order,BLS \
		-deadlines 0,25,100 -restarts 400 \
		-mroamd-args "-scale 0.02 -workers 2 -queue 4" -o BENCH_serving.json

# scale-smoke is the paper-scale regression gate in `check`: stream-build a
# 500k-trajectory NYC universe, corridor-compress it, and finish a
# 1-restart BLS solve — all inside one wall-clock deadline.
scale-smoke:
	$(GO) run ./cmd/mroambench -sizes 500000 -dense-max 0 -deadline 5m \
		-out /tmp/mroam-scale-smoke.json
	@grep -q '"compressed_solve_ms"' /tmp/mroam-scale-smoke.json \
		|| { echo "scale-smoke: no solve recorded"; exit 1; }
	@echo "scale-smoke: OK"

# Regenerate the full evaluation (text + CSV) into results/.
repro:
	mkdir -p results
	$(GO) run ./cmd/mroam exp -all -scale 0.25 -seed 42 -restarts 3 \
		-csv results/figures.csv | tee results/figures.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/nycmarket
	$(GO) run ./examples/sgbusstops
	$(GO) run ./examples/telecom
	$(GO) run ./examples/dailyops
	$(GO) run ./examples/hardnessdemo

clean:
	$(GO) clean ./...
