#!/bin/sh
# obs_smoke.sh — prove the flight recorder end to end. Two stages:
#
#  1. The degraded-flip e2e: run the Go test that injects a disk-full
#     fault into a live tenant and asserts the resulting bundle's logs,
#     spans and journal all carry the triggering trace ID. Shell-level
#     disk faults can't reach a live daemon's already-open WAL, so the
#     honest degraded-transition assertion lives in the fault-injected
#     test and the script runs it by name.
#
#  2. A live imcfd: boot with the debug listener and a diagnostics
#     directory, dump one bundle via POST /debug/flight and one via
#     SIGQUIT, then read them back with imcf-debug — the listing must
#     show well-formed (non-TORN) bundles and the summary must resolve
#     every section.
#
# Run from the repo root (or via `make obs-smoke`).
set -eu

cd "$(dirname "$0")/.."

echo ">> stage 1: degraded-flip bundle correlation (fault-injected e2e)"
go test -count=1 -run 'TestDaemonDegradedFlightBundleCorrelation' ./internal/daemon

workdir=$(mktemp -d)
bin="$workdir/imcfd"
log="$workdir/imcfd.log"
diag="$workdir/diag"

cleanup() {
    [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo ">> building imcfd"
go build -o "$bin" ./cmd/imcfd

# Fixed loopback ports: ephemeral (:0) would work for the daemon but
# leave us unable to discover the bound port from a shell script, so
# pick high ports and let a rare clash fail loudly.
api_port=${IMCF_SMOKE_API_PORT:-18092}
obs_port=${IMCF_SMOKE_METRICS_PORT:-18093}
dbg_port=${IMCF_SMOKE_DEBUG_PORT:-18094}
obs="http://127.0.0.1:$obs_port"
dbg="http://127.0.0.1:$dbg_port"

echo ">> stage 2: starting imcfd (api :$api_port, metrics :$obs_port, debug :$dbg_port)"
"$bin" -addr "127.0.0.1:$api_port" -metrics-addr "127.0.0.1:$obs_port" \
    -debug-addr "127.0.0.1:$dbg_port" -diagnostics "$diag" \
    -residence prototype -interval 1h -log-level debug >"$log" 2>&1 &
pid=$!

ready=""
for _ in $(seq 1 50); do
    if curl -fsS "$obs/healthz" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
if [ -z "$ready" ]; then
    echo "obs-smoke: FAIL — daemon never became ready" >&2
    cat "$log" >&2
    exit 1
fi

# The structured-log endpoint answers on the metrics listener.
if ! curl -fsS "$obs/debug/logs?limit=5" >/dev/null; then
    echo "obs-smoke: FAIL — /debug/logs not served" >&2
    exit 1
fi
# The pprof index answers on the debug listener.
if ! curl -fsS "$dbg/debug/pprof/" >/dev/null; then
    echo "obs-smoke: FAIL — /debug/pprof/ not served" >&2
    exit 1
fi

echo ">> manual bundle via POST /debug/flight"
flight=$(curl -fsS -X POST "$dbg/debug/flight?reason=smoke")
case "$flight" in
*"$diag"*) ;;
*)
    echo "obs-smoke: FAIL — /debug/flight answered: $flight" >&2
    exit 1
    ;;
esac

echo ">> second bundle via SIGQUIT"
kill -QUIT "$pid"
# The SIGQUIT dump is asynchronous; wait for a second bundle directory.
got=""
for _ in $(seq 1 50); do
    count=$(find "$diag" -mindepth 1 -maxdepth 1 -type d 2>/dev/null | wc -l)
    if [ "$count" -ge 2 ]; then
        got=1
        break
    fi
    sleep 0.1
done
if [ -z "$got" ]; then
    echo "obs-smoke: FAIL — SIGQUIT produced no second bundle" >&2
    cat "$log" >&2
    exit 1
fi

echo ">> reading bundles back with imcf-debug"
listing=$(go run ./cmd/imcf-debug -dir "$diag")
echo "$listing"
case "$listing" in
*TORN*)
    echo "obs-smoke: FAIL — torn bundle in listing" >&2
    exit 1
    ;;
*smoke*) ;;
*)
    echo "obs-smoke: FAIL — manual bundle missing from listing" >&2
    exit 1
    ;;
esac
case "$listing" in
*sigquit*) ;;
*)
    echo "obs-smoke: FAIL — sigquit bundle missing from listing" >&2
    exit 1
    ;;
esac

bundle=$(find "$diag" -mindepth 1 -maxdepth 1 -type d | sort | head -1)
summary=$(go run ./cmd/imcf-debug -bundle "$bundle")
for section in logs.jsonl spans.json journal.jsonl metrics.prom goroutines.txt; do
    case "$summary" in
    *"$section"*) ;;
    *)
        echo "obs-smoke: FAIL — section $section missing from summary of $bundle" >&2
        echo "$summary" >&2
        exit 1
        ;;
    esac
done

echo "obs-smoke: OK"
