# Build/test/reproduce targets. Everything is stdlib-only Go; no external
# dependencies are fetched.

GO ?= go

.PHONY: all build vet test race chaos soak-multinode fuzz ci bench bench-core bench-routing bench-tracing bench-wire bench-federation bench-series bench-chaos repro check fmt clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	cd roundbench && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; \
		for f in $$unformatted; do echo "  $$f"; done; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Chaos/soak suite under the race detector: seeded fault injection, agent
# crash-and-reconnect, the >=100-run soak sweep (TestChaosSoak is skipped
# by -short elsewhere; here it runs in full), the federated chaos suite,
# the accept-phase paths (failures, silent connections, plain agents and
# mux sessions on one listener) and the K=1 node/standalone equivalence
# (transcripts, observation streams, run statistics) repeated
# (connection-ownership races show only under repeated, loaded runs), the duplicate-delivery and agent-restart paths of the per-epoch
# dedup repeated, and the full multi-process multi-node harness including
# the kill -9 crash/recovery soak.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 ./internal/distributed
	$(GO) test -race -count=3 -run 'TestChaosFederated|TestServeTCPSessionClosesEarly|TestServeTCPClosesAcceptedConnsOnError|TestNodeFederationMatchesInProcess|TestStandaloneMatchesNodePath|TestServeTCPSilentConnection|TestServeNodeSilentConnection|TestServeTCPMixedFleet|TestServeNodeMuxedFleets' ./internal/distributed
	$(GO) test -race -count=5 -run 'TestSeqConn|TestFaultInjectionDuplicates|TestAgentRestart' ./internal/distributed
	$(GO) test -race -count=1 -timeout 600s ./internal/distributed/e2e

# Multi-process soak of the multi-node TCP federation on its own: real
# platformd/useragent binaries, K-shard clusters behind the front door,
# DET determinism against the standalone platform, SIGTERM shutdown, and
# the kill -9 crash/recovery cycle, repeated to shake out timing.
soak-multinode:
	$(GO) test -race -count=5 -timeout 600s ./internal/distributed/e2e

# Short fuzz pass over the wire codec, the game-state evaluator, the silence
# tolerance against the skip rule and against the binary search it
# replaces, the agent's best response against the
# evaluator, the PUU selection, the routing engine and the scenario
# builder's coverage query (corpus + a few seconds of mutation per target).
# Extend -fuzztime locally for deeper exploration.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCodecDecode -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzBinaryDecode -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzMuxFrames -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzProfileMoves -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzSilenceTolerance -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzToleranceMatchesSearch -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzSelectPUU -fuzztime 5s ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzAgentMatchesCore -fuzztime 5s ./internal/distributed
	$(GO) test -run '^$$' -fuzz FuzzShortestPathEquivalence -fuzztime 5s ./internal/roadnet
	$(GO) test -run '^$$' -fuzz FuzzWithinRadiusOfPolyline -fuzztime 5s ./internal/spatial

# Full local CI gate: build, vet, tests, race (including the chaos suite),
# the request collector's differential and collect-mode tests repeated
# under the race detector (its sharded pass writes per-user slots from
# several workers; TestCollectorLazyPUUMatchesExact,
# TestCollectorCertifiedIsSound and TestCollectorKeyBoundsDelta check PUU's
# bounded path, the certification rule and the δ bound), the drift
# tracker's tests repeated under the race detector (its shards push drift
# from several goroutines; TestDriftTrackerClassDrift checks the watcher
# classes against per-task pushes), short fuzz passes, the round benchmark's own
# tests (a nested module the root ./... never reaches), and smoke runs of
# the benchmark suites (short benchtime: checks the harnesses and the
# speedup/zero-alloc gates, not timings).
ci: build vet test race fuzz
	$(GO) test -race -count=3 -run 'TestCollector|TestCollectRequests|TestRunIdenticalAcrossCollectModes' ./internal/engine
	$(GO) test -race -count=3 -run 'TestDriftTracker' ./internal/core
	cd roundbench && $(GO) test ./...
	$(GO) test -race -short -count=1 ./internal/distributed ./internal/wire
	$(GO) test -race -short -count=1 -timeout 300s ./internal/distributed/e2e
	$(MAKE) bench-core BENCHTIME=20ms BENCH_OUT=/tmp/BENCH_incremental.json
	$(MAKE) bench-routing BENCHTIME=20ms BENCH_ROUTING_OUT=/tmp/BENCH_routing.json
	$(MAKE) bench-tracing BENCHTIME=20ms BENCH_TRACING_OUT=/tmp/BENCH_tracing.json
	$(MAKE) bench-wire BENCHTIME=20ms BENCH_WIRE_OUT=/tmp/BENCH_wire.json
	$(MAKE) bench-federation FED_M=2000 FED_ROUNDS=8 BENCH_FED_OUT=/tmp/BENCH_federation.json
	$(MAKE) bench-series BENCHTIME=20ms BENCH_SERIES_OUT=/tmp/BENCH_series.json

# One benchmark per table/figure plus ablations; -benchtime=1x exercises
# each once (raise for stable timings).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Machine-readable baseline for the incremental evaluation layer: cached
# vs naive-oracle ns/op, allocs/op, slots/sec, and speedups, written to
# BENCH_incremental.json. Fails if NashGap or Slot at M=500 is <5x faster
# than the oracle. Raise BENCHTIME for stable committed numbers.
BENCHTIME ?= 500ms
BENCH_OUT ?= BENCH_incremental.json
bench-core:
	$(GO) run ./cmd/benchcore -benchtime $(BENCHTIME) -min-speedup 5 -o $(BENCH_OUT)

# Machine-readable baseline for the routing engine: goal-directed (ALT)
# search and route recommendation vs the frozen reference implementations,
# plus the parallel-vs-sequential scenario build, written to
# BENCH_routing.json on a |V| ladder up to one million nodes. Fails if the
# scenario-build speedup at M=5000 is <3x or a warm ALT engine query
# allocates.
BENCH_ROUTING_OUT ?= BENCH_routing.json
bench-routing:
	$(GO) run ./cmd/benchcore -suite routing -benchtime $(BENCHTIME) \
		-min-scenario-speedup 3 -routing-o $(BENCH_ROUTING_OUT)

# Machine-readable baseline for the distributed tracer: disabled, unsampled,
# and sampled span costs plus flight-recorder event throughput, written to
# BENCH_tracing.json. Fails if any gated hot path (disabled/unsampled spans,
# sampled record, envelope propagation) allocates.
BENCH_TRACING_OUT ?= BENCH_tracing.json
bench-tracing:
	$(GO) run ./cmd/benchcore -suite tracing -benchtime $(BENCHTIME) \
		-gate-tracing-allocs -tracing-o $(BENCH_TRACING_OUT)

# Machine-readable baseline for the wire codec: binary vs gob encode/decode
# per message kind plus multiplexer throughput, written to BENCH_wire.json.
# Fails if the binary codec is <3x faster than gob on SlotInfo/Request
# encode+decode or a per-slot binary path allocates.
BENCH_WIRE_OUT ?= BENCH_wire.json
bench-wire:
	$(GO) run ./cmd/benchcore -suite wire -benchtime $(BENCHTIME) \
		-min-wire-speedup 3 -gate-wire-allocs -wire-o $(BENCH_WIRE_OUT)

# Machine-readable baseline for the sharded federation: the in-process
# federation (K ServeNode shards) at K in {1,2,4,8} over the same M-user
# world, recording aggregate shard-slot throughput over each run's wall
# clock, written to BENCH_federation.json. Fails if the K=4 federation is
# <2x the K=1 slot throughput (the request-broadcast + gossip tax must
# stay under half the ideal xK scaling). The committed baseline uses
# FED_M=50000; the ci smoke run shrinks the world.
BENCH_FED_OUT ?= BENCH_federation.json
FED_M ?= 50000
FED_ROUNDS ?= 10
bench-federation:
	$(GO) run ./cmd/benchcore -suite federation -fed-m $(FED_M) -fed-rounds $(FED_ROUNDS) \
		-fed-shards 1,2,4,8 -min-fed-speedup 2 -fed-o $(BENCH_FED_OUT)

# Machine-readable baseline for the time-series telemetry store: the
# per-observation append path (steady-state, bucket-roll, and contended),
# segment-flush throughput in closed buckets/sec, and range-query latency
# at native and downsampled resolution, written to BENCH_series.json.
# Fails if any append path allocates.
BENCH_SERIES_OUT ?= BENCH_series.json
bench-series:
	$(GO) run ./cmd/benchcore -suite series -benchtime $(BENCHTIME) \
		-gate-series-allocs -series-o $(BENCH_SERIES_OUT)

# Convergence-slot overhead of the standard fault profile vs clean links.
bench-chaos:
	$(GO) test -bench BenchmarkConvergence -benchtime 20x -run '^$$' ./internal/distributed

# Full paper reproduction at Table-2 scale (500 repetitions; ~15–30 min).
repro:
	$(GO) run ./cmd/vcsnav -exp all -reps 500 -o results

# Fast verification that every qualitative claim of §5 holds (~2 min).
check:
	$(GO) run ./cmd/vcsnav -exp all -check -reps 50

fmt:
	gofmt -w .

clean:
	rm -rf results test_output.txt bench_output.txt
