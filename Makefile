# Development workflow for the Marauder's-map reproduction. The repo has
# no dependencies outside the Go standard library, so these targets are
# the entire toolchain.

GO ?= go

.PHONY: all build vet test race bench bench-engine fmt fmt-check check metrics-smoke trace-smoke chaos-smoke agent-smoke profile-smoke fuzz-smoke bench-smoke bench-floors

all: check

build:
	$(GO) build ./...

# bench/ is its own module, so the root vet does not reach it.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

test:
	$(GO) test ./...

# The engine's ingest-while-snapshot path is concurrency-critical; run the
# whole suite under the race detector.
race:
	$(GO) test -race ./...

# Repro tables/figures plus the engine throughput benchmarks.
bench:
	$(GO) test -run xxx -bench . -benchmem .

bench-engine:
	$(GO) test -run xxx -bench BenchmarkEngineSnapshot .

# The absolute micro-benchmark floor the end-to-end benchmark does not
# enforce: the incremental region kernel must beat the full per-fix
# recompute >= 5x on the churn workload (best of 5 rounds).
bench-floors:
	sh scripts/bench_floors.sh

# Short fuzzing burst over every fuzz target: the frame parser, the
# radiotap splitter, the pcap reader, the sharded store's record ingest,
# window-query oracle and sliding-window sweep, the AP snapshot and
# capwire codecs, the FTDC decoder, the incremental-region and M-Loc
# vertex-kernel differential oracles, and the /api/state encoder's
# encoding/json oracle.
# Checked-in corpora under testdata/fuzz replay as plain tests; this
# keeps mining.
fuzz-smoke:
	$(GO) test -run xxx -fuzz 'FuzzDecode$$' -fuzztime=10s ./internal/dot11
	$(GO) test -run xxx -fuzz 'FuzzDecodeRadiotap$$' -fuzztime=10s ./internal/dot11
	$(GO) test -run xxx -fuzz 'FuzzFrameParse$$' -fuzztime=10s ./internal/dot11
	$(GO) test -run xxx -fuzz 'FuzzReader$$' -fuzztime=10s ./internal/pcap
	$(GO) test -run xxx -fuzz 'FuzzIngest$$' -fuzztime=10s ./internal/obs
	$(GO) test -run xxx -fuzz 'FuzzScanAPSetWindow$$' -fuzztime=10s ./internal/obs
	$(GO) test -run xxx -fuzz 'FuzzSweep$$' -fuzztime=10s ./internal/obs
	$(GO) test -run xxx -fuzz 'FuzzSnapshotCodec$$' -fuzztime=10s ./internal/apdb
	$(GO) test -run xxx -fuzz 'FuzzIncrementalRegion$$' -fuzztime=30s ./internal/geom
	$(GO) test -run xxx -fuzz 'FuzzRegionVertices$$' -fuzztime=10s ./internal/geom
	$(GO) test -run xxx -fuzz 'FuzzCapwireDecode$$' -fuzztime=10s ./internal/capwire
	$(GO) test -run xxx -fuzz 'FuzzDecode$$' -fuzztime=10s ./internal/telemetry/ftdc
	$(GO) test -run xxx -fuzz 'FuzzRoundTrip$$' -fuzztime=10s ./internal/telemetry/ftdc
	$(GO) test -run xxx -fuzz 'FuzzStateJSON$$' -fuzztime=10s ./internal/mapserver

fmt:
	gofmt -l -w .

# Non-writing format gate: fails, listing the files, when any file is not
# gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# End-to-end benchmark at smoke scale: all four bench/ workloads through
# capwire → engine → mapserver, each checked bit for bit against a
# sequential uncached reference engine. bench/ is its own module, so the
# repository-wide go test does not reach it.
bench-smoke:
	cd bench && $(GO) test ./...

# End-to-end observability gate: boot cmd/marauder on the sim world with
# -metrics-addr, scrape /metrics, and assert the engine cache counters,
# snapshot-latency histogram and per-algorithm error histogram are served.
metrics-smoke:
	sh scripts/metrics_smoke.sh

# End-to-end explainability gate: boot cmd/marauder with -trace, pull a
# device off /api/state, and assert /api/explain serves its provenance
# (algorithm, Γ, k, intersected area vs Theorem 2, cache hit, stage
# durations) and the /api/* method/caching contract holds.
trace-smoke:
	sh scripts/trace_smoke.sh

# End-to-end robustness gate: boot cmd/marauder with -chaos and
# checkpointing, SIGKILL it mid-run, restart on the same checkpoint
# directory, and assert the recovery log line and a live /api/health.
chaos-smoke:
	sh scripts/chaos_smoke.sh

# End-to-end distributed-capture gate: marauder with the agent plane as
# its only capture source, two capagents under the aggressive wire fault
# plan, one SIGKILLed and restarted mid-stream — must resume at its
# acked cursor with per-agent accounting balanced and metrics exported;
# then marauder itself is SIGKILLed and restarted on its checkpoint
# directory, where the other agent must resume from the checkpointed
# cursor with the books balanced; that agent, stopped with SIGTERM,
# must flush and report.
agent-smoke:
	sh scripts/agent_chaos_smoke.sh

# End-to-end profiling/SLO/flight-recorder gate: a one-shot marauder run
# must write all five profile kinds and print a decoded hot-function
# attribution; a serving run must answer /api/slo and /api/profile with
# live content, export the stage/SLO metric families, and on SIGTERM
# write a final checkpoint and a flight record ftdcdump -check accepts.
profile-smoke:
	sh scripts/profile_smoke.sh

# The gate CI runs, in CI's order: everything must pass before a merge.
check: fmt-check vet build test race bench-smoke metrics-smoke trace-smoke chaos-smoke agent-smoke profile-smoke fuzz-smoke bench-floors
