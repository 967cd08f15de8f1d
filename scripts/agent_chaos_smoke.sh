#!/bin/sh
# agent-chaos-smoke: boot cmd/marauder with the agent plane as its ONLY
# capture source, stream from two cmd/capagent processes through the
# aggressive wire fault plan, SIGKILL one agent mid-stream, restart it
# under the same identity, and assert the restart resumes from its acked
# cursor with the exactly-once books still balanced. Then SIGKILL the
# marauder itself, restart it on the same checkpoint directory, and
# assert the surviving agent resumes from the cursor saved in the
# checkpoint with the books balanced, then stop that agent with SIGTERM
# and assert it shut down gracefully. This is the CI gate for "the
# distributed capture plane survives wire chaos, an agent hard-kill and
# a server hard-kill", end to end over real TCP — not just the capwire
# unit tests.
set -eu

ADDR="${SMOKE_ADDR:-127.0.0.1:18663}"
WIRE="${SMOKE_WIRE:-127.0.0.1:18664}"
BINDIR="$(mktemp -d)"
CKPT="$(mktemp -d)"
LOG_SRV="$(mktemp)"
LOG_A1="$(mktemp)"
LOG_A2="$(mktemp)"
LOG_A2R="$(mktemp)"
OUT="$(mktemp)"

cleanup() {
    for p in "${SRV_PID:-}" "${A1_PID:-}" "${A2_PID:-}"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -f "$LOG_SRV" "$LOG_A1" "$LOG_A2" "$LOG_A2R" "$OUT"
    rm -rf "$BINDIR" "$CKPT"
}
trap cleanup EXIT INT TERM

go build -o "$BINDIR/marauder" ./cmd/marauder
go build -o "$BINDIR/capagent" ./cmd/capagent

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -sS "$1" 2>/dev/null
    else
        wget -qO- --content-on-error "$1" 2>/dev/null || true
    fi
}

# metric NAME{labels} -> current value (0 when the series is absent).
metric() {
    fetch "http://$ADDR/metrics" | awk -v s="$1" '$1 == s {print $2; found=1} END {if (!found) print 0}'
}

# wait_metric_ge SERIES FLOOR WHAT: poll until the series reaches FLOOR.
wait_metric_ge() {
    tries=0
    while :; do
        v="$(metric "$1")"
        [ "${v%.*}" -ge "$2" ] 2>/dev/null && return 0
        tries=$((tries + 1))
        if [ "$tries" -ge 120 ]; then
            echo "agent-chaos-smoke: $3 never happened ($1 = $v, want >= $2)" >&2
            cat "$LOG_SRV" >&2
            exit 1
        fi
        sleep 0.5
    done
}

# --- Engine: agent plane only, no local capture, cursors checkpointed. ---
start_marauder() {
    "$BINDIR/marauder" -addr "$ADDR" -agents-listen "$WIRE" -local-capture=false \
        -seed 1 -aps 120 -speedup 100 -ingest-stale-after 30s \
        -checkpoint-dir "$CKPT" -checkpoint-interval 1s >>"$LOG_SRV" 2>&1 &
    SRV_PID=$!

    tries=0
    until fetch "http://$ADDR/api/agents" | grep -q '"enabled":true'; do
        tries=$((tries + 1))
        if [ "$tries" -ge 60 ]; then
            echo "agent-chaos-smoke: /api/agents never enabled" >&2
            cat "$LOG_SRV" >&2
            exit 1
        fi
        if ! kill -0 "$SRV_PID" 2>/dev/null; then
            echo "agent-chaos-smoke: marauder exited early" >&2
            cat "$LOG_SRV" >&2
            exit 1
        fi
        sleep 0.5
    done
}

# assert_books: /api/agents must show no agent with unbalanced books.
assert_books() {
    fetch "http://$ADDR/api/agents" >"$OUT"
    if grep -q '"accountingOk":false' "$OUT"; then
        echo "agent-chaos-smoke: exactly-once accounting violated $1:" >&2
        cat "$OUT" >&2
        exit 1
    fi
}

start_marauder

# --- Two agents, both through the aggressive wire fault plan. ---
agent() { # $1 id, $2 pos, $3 wire seed, $4 log
    "$BINDIR/capagent" -server "$WIRE" -agent "$1" -pos "$2" \
        -seed 1 -aps 120 -speedup 200 \
        -wire-chaos -wire-seed "$3" >"$4" 2>&1 &
}
agent lab-1 "-120,0" 11 "$LOG_A1"
A1_PID=$!
agent lab-2 "120,0" 12 "$LOG_A2"
A2_PID=$!

wait_metric_ge 'marauder_agent_batches_ingested_total{agent="lab-1"}' 2 "lab-1 ingest"
wait_metric_ge 'marauder_agent_batches_ingested_total{agent="lab-2"}' 2 "lab-2 ingest"
PRE_KILL="$(metric 'marauder_agent_batches_ingested_total{agent="lab-2"}')"

# --- Hard-kill lab-2 mid-stream: no flush, no goodbye. ---
kill -9 "$A2_PID"
wait "$A2_PID" 2>/dev/null || true
A2_PID=

# --- Restart under the same identity: must resume, not restart at 0. ---
agent lab-2 "120,0" 13 "$LOG_A2R"
A2_PID=$!

wait_metric_ge 'marauder_agent_resumes_total{agent="lab-2"}' 1 "lab-2 cursor resume"
wait_metric_ge 'marauder_agent_batches_ingested_total{agent="lab-2"}' "$((${PRE_KILL%.*} + 1))" \
    "lab-2 post-resume ingest"

# --- The books must balance for every agent, through all of the above. ---
assert_books "before the server kill"
grep -q '"id":"lab-1"' "$OUT" && grep -q '"id":"lab-2"' "$OUT" || {
    echo "agent-chaos-smoke: /api/agents lost an agent: $(cat "$OUT")" >&2
    exit 1
}

# Health answers with the agent plane attached (healthy or degraded —
# chaos may hold a connection torn at sample time — but never silent).
fetch "http://$ADDR/api/health" >"$OUT"
grep -q '"status"' "$OUT" || {
    echo "agent-chaos-smoke: /api/health served no status: $(cat "$OUT")" >&2
    exit 1
}

# The full per-agent metric family is exported.
fetch "http://$ADDR/metrics" >"$OUT"
for m in marauder_agent_frames_ingested_total marauder_agent_connects_total \
    marauder_agent_connected marauder_agent_batch_seconds_count; do
    grep -q "^$m" "$OUT" || {
        echo "agent-chaos-smoke: /metrics lacks $m" >&2
        exit 1
    }
done

# --- Hard-kill the marauder once a checkpoint holds lab-1's cursor. ---
# The cursors ride in each checkpoint's JSON header line.
lab1_checkpointed() {
    for f in "$CKPT"/*.ckpt; do
        head -n 1 "$f" 2>/dev/null | grep -q '"lab-1":[1-9]' && return 0
    done
    return 1
}
tries=0
until lab1_checkpointed; do
    tries=$((tries + 1))
    if [ "$tries" -ge 30 ]; then
        echo "agent-chaos-smoke: no checkpoint holds a cursor for lab-1" >&2
        exit 1
    fi
    sleep 0.5
done
kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=

# --- Restart on the same checkpoint directory: lab-1 must resume. ---
# The counters are the restarted process's own.
start_marauder
wait_metric_ge 'marauder_agent_resumes_total{agent="lab-1"}' 1 "lab-1 resume on the restarted marauder"
assert_books "after the server restart"
# Wire chaos reconnects resume too, so also require that every lab-1
# session on the restarted marauder resumed, its first one included:
# the cursor came back from the checkpoint, not from zero.
LAB1="$(grep -o '{"id":"lab-1"[^}]*}' "$OUT")"
RESUMES="$(echo "$LAB1" | sed -n 's/.*"resumes":\([0-9]*\).*/\1/p')"
CONNECTS="$(echo "$LAB1" | sed -n 's/.*"connects":\([0-9]*\).*/\1/p')"
if [ -z "$RESUMES" ] || [ "$RESUMES" != "$CONNECTS" ]; then
    echo "agent-chaos-smoke: lab-1 did not resume from the checkpointed cursor: $LAB1" >&2
    exit 1
fi

# A plain kill (SIGTERM, as docker stop or systemd sends) must take the
# agent's graceful path: flush the queued tail, report, close.
kill "$A1_PID"
wait "$A1_PID" 2>/dev/null || true
A1_PID=
grep -q 'capture agent stopped' "$LOG_A1" || {
    echo "agent-chaos-smoke: lab-1 did not shut down gracefully on SIGTERM" >&2
    tail -20 "$LOG_A1" >&2
    exit 1
}

echo "agent-chaos-smoke: ok (wire chaos survived, agent and server kills resumed at cursor, accounting balanced, graceful SIGTERM)"
