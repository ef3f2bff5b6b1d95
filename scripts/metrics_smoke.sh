#!/bin/sh
# metrics_smoke.sh — boot imcfd on ephemeral ports, run one planning
# cycle, and verify the /metrics and /healthz endpoints serve the core
# metric families. Run from the repo root (or via `make metrics-smoke`).
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
bin="$workdir/imcfd"
log="$workdir/imcfd.log"

cleanup() {
    [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo ">> building imcfd"
go build -o "$bin" ./cmd/imcfd

# Fixed loopback ports: ephemeral (:0) would work for the daemon but
# leave us unable to discover the bound port from a shell script, so
# pick two high ports and let a rare clash fail loudly.
api_port=${IMCF_SMOKE_API_PORT:-18088}
obs_port=${IMCF_SMOKE_METRICS_PORT:-18089}
api="http://127.0.0.1:$api_port"
obs="http://127.0.0.1:$obs_port"

echo ">> starting imcfd (api :$api_port, metrics :$obs_port)"
"$bin" -addr "127.0.0.1:$api_port" -metrics-addr "127.0.0.1:$obs_port" \
    -residence prototype -interval 1h >"$log" 2>&1 &
pid=$!

# Wait for /healthz to answer.
ready=""
for _ in $(seq 1 50); do
    if curl -fsS "$obs/healthz" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
if [ -z "$ready" ]; then
    echo "metrics-smoke: FAIL — daemon never became ready" >&2
    cat "$log" >&2
    exit 1
fi

echo ">> running one planning cycle"
curl -fsS -X POST -d '{}' "$api/rest/plan/run" >/dev/null

echo ">> scraping $obs/metrics"
scrape=$(curl -fsS "$obs/metrics")

for family in \
    imcf_planner_window_seconds_bucket \
    imcf_planner_plans_total \
    imcf_rules_considered_total \
    imcf_rules_executed_total \
    imcf_rules_dropped_total \
    imcf_energy_consumed_kwh \
    imcf_controller_steps_total \
    imcf_tenant_healthy; do
    if ! echo "$scrape" | grep -q "^$family"; then
        echo "metrics-smoke: FAIL — family $family missing from /metrics" >&2
        exit 1
    fi
done

health=$(curl -fsS "$obs/healthz")
case "$health" in
*'"status":"ok"'*) ;;
*)
    echo "metrics-smoke: FAIL — /healthz says: $health" >&2
    exit 1
    ;;
esac

echo "metrics-smoke: OK"
