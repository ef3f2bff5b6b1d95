#!/bin/sh
# check.sh — the repo's verification gate: format, build, vet, lint,
# then the full test suite under the race detector. Run from the repo
# root.
set -eu

cd "$(dirname "$0")/.."

echo ">> gofmt -l"
fmt_out=$(gofmt -l .)
if [ -n "$fmt_out" ]; then
    echo "check: FAIL — files need gofmt:" >&2
    echo "$fmt_out" >&2
    exit 1
fi

echo ">> go build ./..."
go build ./...

# Every -run gate below goes through scripts/gates.sh, which holds the
# suite regexes and fails a gate whose name matches no test, so a
# deleted or renamed test cannot silently empty it.

echo ">> go vet ./..."
go vet ./...

# The benchmark is its own module (_benchmark/go.mod, replacing this
# one): vetting it here means an API change the benchmark depends on
# fails the gate rather than the benchmark run.
echo ">> go vet ./... in _benchmark"
(cd _benchmark && go vet ./...)

# imcf-lint runs before the race suite: static findings are cheaper to
# surface than a full -race cycle. The suite includes the CFG-based
# rules (lockdiscipline, tenantisolation, osbypass, goleak; DESIGN.md
# §14). Every finding fails the gate unless an //imcf:allow waiver
# excuses it, and imcf-lint exits 2 when a waiver suppresses nothing,
# so waivers cannot rot.
echo ">> imcf-lint ./..."
go run ./cmd/imcf-lint ./...

# Tracing-overhead gate: the disabled tracing/journaling paths must
# stay allocation-free (testing.AllocsPerRun == 0), the journal ring's
# entry and frame must stay within 40 and 48 bytes and a full default
# ring within 56 heap bytes per event, a warm controller step (with and
# without measurement persistence) must stay within its step-scratch
# budget (see internal/controller/alloc_test.go), and a proxied
# response must not pay for a fresh copy buffer
# (internal/cloud/alloc_test.go). Run outside -race (the detector's
# instrumentation allocates and would mask regressions).
echo ">> go test -run AllocsTrace ./internal/metrics ./internal/journal ./internal/controller ./internal/cloud"
./scripts/gates.sh check AllocsTrace ./internal/metrics ./internal/journal ./internal/controller ./internal/cloud
go test -run AllocsTrace -count=1 ./internal/metrics ./internal/journal ./internal/controller ./internal/cloud

# Store append-path allocation gate: one Put must stay within its small
# pooled-scratch budget (see internal/store/alloc_test.go). Also
# outside -race for the same reason.
echo ">> go test -run StorePutAllocs ./internal/store"
./scripts/gates.sh check StorePutAllocs ./internal/store
go test -run StorePutAllocs -count=1 ./internal/store

# Logging disabled-path allocation gate: a level-gated or globally
# disabled log call on the serving path must not allocate at all
# (see internal/obs/obs_test.go). Also outside -race.
echo ">> go test -run AllocsObs ./internal/obs"
./scripts/gates.sh check AllocsObs ./internal/obs
go test -run AllocsObs -count=1 ./internal/obs

# Energy Planner suite: the controller step and the sim replay must
# journal the same verdicts for the same budget and planner seed, the
# replay's determinism hashes must hold, the window-prefetch pipeline
# must match the sequential replay and tear down on a planner error,
# and the warm controller step must stay within its allocation budget
# (DESIGN.md §4, §7). Outside -race, whose instrumentation allocates.
echo ">> EP suite"
./scripts/gates.sh ep

# Crash suite: kill-at-every-failpoint recovery for the store and the
# decision journal, the journal's fsync per event, the multi-tenant
# fleet crash suite (tenants as
# namespaces of one shared WAL — a crash mid-fleet-cycle must leave
# every tenant at a point in its own history), plus the daemon
# degraded-mode e2e (DESIGN.md §11, §12, §13). Runs without -race first
# so a durability regression fails fast with the failpoint identified,
# before the slower race cycle repeats it.
echo ">> crash suite (kill-at-every-failpoint)"
./scripts/gates.sh crash

# Degraded-mode tests in random order, twice over: the degraded gauge
# and counters are process-global, so a test that leaks one into the
# next, or assumes one starts at zero, fails here.
echo ">> degraded-mode tests, shuffled"
./scripts/gates.sh check Degraded ./internal/daemon
go test -count=2 -shuffle=on -run Degraded ./internal/daemon

# The fleet, metrics, store, persistence and journal packages, twice
# over in random order: their metric families are process-global too,
# so a test that reads one as an absolute instead of against its value
# before the action, or leans on state an earlier test left behind,
# fails here.
echo ">> fleet, metrics, store, persistence and journal tests, twice, shuffled"
go test -count=2 -shuffle=on ./internal/fleet ./internal/metrics ./internal/store ./internal/persistence ./internal/journal

# Tenant-equivalence harness: the multi-home tentpole gate (DESIGN.md
# §13) — one home hosted solo and hosted as a fleet tenant among noisy
# neighbors must produce bit-identical journal hashes, event streams,
# persisted decision logs and recovered store state, at 1 and 8 fleet
# workers.
echo ">> tenant-equivalence harness"
equiv_gate='FleetTenantEquivalence|ObsEquivalence'
./scripts/gates.sh check "$equiv_gate" ./internal/daemon
go test -count=1 -run "$equiv_gate" ./internal/daemon

# Stream suite, the delta-sync gate (DESIGN.md §16): a mirror maintained
# over the stream protocol — through a chaos proxy dropping every other
# delta poll, and across a daemon restart — must stay bit-identical to
# one rebuilt by polling and to the controller's memory, for every
# fleet tenant; a delta long-poll parked at a site must cross the cloud
# relay's proxy with the batch published after it parked and its resume
# headers; and GET /rest/plan, racing planning steps, must serve every
# body under its own ETag.
echo ">> stream suite"
./scripts/gates.sh stream

echo ">> go test -race ./..."
go test -race ./...

echo ">> go test -cover ./internal/..."
cover_out=$(go test -cover ./internal/...)
echo "$cover_out"

# Every internal package must ship tests: a "[no test files]" line in
# the coverage run is a gate failure, not a warning.
if echo "$cover_out" | grep -q 'no test files'; then
    echo "check: FAIL — internal packages without tests:" >&2
    echo "$cover_out" | grep 'no test files' >&2
    exit 1
fi

# Coverage floors. internal/metrics is the serving path's
# observability substrate; internal/analysis is the lint rule suite,
# whose false negatives silently erode the invariants it guards;
# internal/journal is the decision-provenance record whose gaps would
# make "why was rule R dropped" unanswerable; internal/faultfs is the
# fault-injection seam the crash suite's guarantees rest on — an
# untested injector proves nothing about the code it instruments;
# internal/store carries the durability guarantees every other
# subsystem builds on; internal/fleet is the multi-home scheduler whose
# determinism the tenant-equivalence proof rests on; internal/obs is
# the flight-recorder stack — untested diagnostics lie exactly when
# they are needed; internal/stream is the delta-sync protocol core —
# an uncovered resume/coalesce edge is a silent replica-divergence bug.
check_floor() {
    pkg="$1" floor="$2"
    cov=$(echo "$cover_out" | awk -v p="/$pkg\$" '
        $2 ~ p {
            for (i = 1; i <= NF; i++)
                if ($i ~ /^[0-9.]+%$/) { sub(/%/, "", $i); print $i }
        }')
    if [ -z "$cov" ]; then
        echo "check: FAIL — no coverage figure for $pkg" >&2
        exit 1
    fi
    if ! awk -v c="$cov" -v f="$floor" 'BEGIN { exit !(c >= f) }'; then
        echo "check: FAIL — $pkg coverage ${cov}% is below the ${floor}% floor" >&2
        exit 1
    fi
    echo "$pkg coverage ${cov}% (floor ${floor}%)"
}
check_floor internal/metrics 90
check_floor internal/analysis 90
check_floor internal/journal 90
check_floor internal/faultfs 90
check_floor internal/store 90
check_floor internal/fleet 90
check_floor internal/obs 90
check_floor internal/stream 90

echo "check: OK"
