#!/bin/sh
# bench-floors: the absolute micro-benchmark floor that bench/ (the
# end-to-end benchmark) does not enforce. The run fails unless the
# incremental disc-intersection kernel beats the full per-fix recompute
# by >= 5x on the sliding-Γ churn workload (BenchmarkTrackChurn/kernel,
# path=incremental vs path=full).
# The benchmark runs 5 times and each side keeps its best ns/op: on a
# shared machine the minimum is the least-noise estimate.
#
# The other micro-benchmarks stay runnable with go test -bench; how fast
# the pipeline is end to end is bench/'s answer (bash bench/run.sh).
#
# Usage: sh scripts/bench_floors.sh
set -eu

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

for round in 1 2 3 4 5; do
	go test -run '^$' -bench 'BenchmarkTrackChurn/kernel/' \
		-benchtime 1s . | tee -a "$raw"
done

awk '
/^Benchmark/ && / ns\/op/ {
	name = $1
	sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
	for (i = 2; i < NF; i++)
		if ($(i + 1) == "ns/op" && (!(name in best) || $i + 0 < best[name]))
			best[name] = $i + 0
}
function floor(what, slow, fast, min,   r) {
	if (!(slow in best) || !(fast in best) || best[fast] <= 0) {
		printf "bench-floors: %s: no result for %s or %s\n", what, slow, fast > "/dev/stderr"
		failed = 1
		return
	}
	r = best[slow] / best[fast]
	printf "%s: %.1fx (floor %dx)\n", what, r, min
	if (r < min) {
		printf "bench-floors: %s is below its %dx floor\n", what, min > "/dev/stderr"
		failed = 1
	}
}
END {
	print ""
	floor("incremental vs full churn kernel",
		"BenchmarkTrackChurn/kernel/path=full", "BenchmarkTrackChurn/kernel/path=incremental", 5)
	exit failed
}' "$raw"
