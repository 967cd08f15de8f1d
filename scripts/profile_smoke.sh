#!/bin/sh
# profile-smoke: the CI gate for the continuous profiler and the SLO
# plane. One-shot: run the marauder attack under a heavy algorithm with
# -prof-dir and assert every profile kind (cpu, heap, goroutine, mutex,
# block) was written and the in-process attributor decoded the CPU
# capture into a non-empty hot-function table (the "profile:" summary
# line). Serving: boot with the profiler, the default SLOs, per-fix
# stage timing, the flight recorder and checkpointing, then assert
# /api/slo and /api/profile carry live content and the new metric
# families show on /metrics. Finally stop it with a plain kill (SIGTERM,
# as docker stop or systemd sends) and assert the graceful shutdown ran:
# a final checkpoint was logged and ftdcdump -check decodes the sealed
# flight record.
#
# Env overrides: SMOKE_ADDR (default 127.0.0.1:18655), APS (one-shot AP
# count, default 600), PROFILE_DIR (kept when set; default a temp dir;
# the one-shot's profiles land in it and the serving run's flight record
# in its ftdc/ subdirectory).
set -eu

ADDR="${SMOKE_ADDR:-127.0.0.1:18655}"
APS="${APS:-600}"
TMP="$(mktemp -d)"

cleanup() {
    [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

PROFILE_DIR="${PROFILE_DIR:-$TMP/prof}"

go build -o "$TMP/marauder" ./cmd/marauder
go build -o "$TMP/ftdcdump" ./cmd/ftdcdump

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "http://$ADDR$1"
    else
        wget -qO- "http://$ADDR$1"
    fi
}

# One-shot pass: aprad's per-fix linear programs give the 100 Hz sampler
# real work, so the attribution table cannot be legitimately empty.
"$TMP/marauder" -once -algo aprad -aps "$APS" \
    -prof-dir "$PROFILE_DIR" -prof-cpu 30s \
    -mutex-profile-fraction 5 -block-profile-rate 10000 \
    >"$TMP/once.out" 2>"$TMP/once.err" || {
    echo "profile-smoke: marauder -once failed" >&2
    cat "$TMP/once.err" >&2
    exit 1
}

for kind in cpu heap goroutine mutex block; do
    if ! ls "$PROFILE_DIR"/prof-"$kind"-*.pprof >/dev/null 2>&1; then
        echo "profile-smoke: no $kind artifact in $PROFILE_DIR" >&2
        ls -la "$PROFILE_DIR" >&2 || true
        exit 1
    fi
done

if ! grep -q '^profile: [1-9][0-9]* samples, hottest ' "$TMP/once.out"; then
    echo "profile-smoke: no decoded attribution in the -once output" >&2
    tail -5 "$TMP/once.out" >&2
    exit 1
fi

# Serving path: profiler cycling fast, the registry sampler feeding the
# default SLOs and the flight recorder every 250 ms, tracing (and so
# stage timing) on every fix, checkpoints on.
"$TMP/marauder" -addr "$ADDR" -aps 150 -speedup 200 \
    -prof-dir "$TMP/prof-serve" -prof-interval 5s -prof-cpu 2s \
    -slo-defaults -trace -sample-interval 250ms \
    -ftdc-dir "$PROFILE_DIR/ftdc" \
    -checkpoint-dir "$TMP/ckpt" \
    >"$TMP/serve.out" 2>&1 &
PID=$!

up=""
tries=0
while [ $tries -lt 60 ]; do
    tries=$((tries + 1))
    if fetch /api/health >/dev/null 2>&1; then
        up=1
        break
    fi
    sleep 0.5
done
if [ -z "$up" ]; then
    echo "profile-smoke: server did not come up on $ADDR" >&2
    tail -20 "$TMP/serve.out" >&2
    exit 1
fi

# Give the SLO sampler and one profiler cycle time to land, then assert the
# endpoints carry live content, not just the enabled flag.
sleep 6
fetch /api/slo >"$TMP/slo.json"
grep -q '"enabled": *true' "$TMP/slo.json" || {
    echo "profile-smoke: /api/slo not enabled" >&2
    cat "$TMP/slo.json" >&2
    exit 1
}
grep -q '"fix-latency"' "$TMP/slo.json" || {
    echo "profile-smoke: /api/slo lacks the default fix-latency objective" >&2
    cat "$TMP/slo.json" >&2
    exit 1
}
fetch /api/profile >"$TMP/profile.json"
grep -q '"enabled": *true' "$TMP/profile.json" || {
    echo "profile-smoke: /api/profile not enabled" >&2
    cat "$TMP/profile.json" >&2
    exit 1
}
fetch /metrics >"$TMP/metrics.txt"
grep -q '^marauder_stage_seconds_count{stage="window_assembly"}' "$TMP/metrics.txt" || {
    echo "profile-smoke: stage histograms missing from /metrics" >&2
    exit 1
}
grep -q '^marauder_slo_budget_remaining' "$TMP/metrics.txt" || {
    echo "profile-smoke: SLO gauges missing from /metrics" >&2
    exit 1
}

kill "$PID" 2>/dev/null
wait "$PID" 2>/dev/null || true
PID=""

# SIGTERM must take the graceful path: final checkpoint, the recorder's
# last sample and a sealed file.
grep -q 'final checkpoint written' "$TMP/serve.out" || {
    echo "profile-smoke: no final checkpoint after SIGTERM" >&2
    tail -20 "$TMP/serve.out" >&2
    exit 1
}
found=0
for f in "$PROFILE_DIR"/ftdc/*.ftdc; do
    [ -e "$f" ] || continue
    found=$((found + 1))
    "$TMP/ftdcdump" -check "$f"
done
if [ "$found" -eq 0 ]; then
    echo "profile-smoke: the serving run left no flight record" >&2
    exit 1
fi

echo "profile-smoke: ok (5 artifact kinds, decoded attribution, live /api/slo + /api/profile, graceful SIGTERM)"
