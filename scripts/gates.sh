#!/bin/sh
# gates.sh — the named test gates, defined once for scripts/check.sh and
# the Makefile suites. It runs from the repo root wherever it is called.
#
#   scripts/gates.sh check REGEX PKG...   fail unless every |-separated
#                                          name in REGEX matches a test,
#                                          benchmark or fuzz target of PKG...
#   scripts/gates.sh SUITE [FLAG...]      check SUITE's gate, then run it:
#                                          go test -count=1 FLAG... -run GATE
#
# SUITE is one of:
#
#   crash   kill-at-every-failpoint recovery for the store, the decision
#           journal and the flight recorder, the journal's fsync per
#           event, the multi-tenant crash suite on a shared WAL, and the
#           daemon degraded-mode e2e tests (DESIGN.md §11–§13, §15)
#   stream  the stream-equivalence harness (a sync-maintained mirror
#           bit-identical to a poll-built one and to controller memory,
#           DESIGN.md §16), a delta long-poll crossing the cloud relay's
#           proxy, and GET /rest/plan pairing each body with its own
#           ETag while steps publish
#   fleet   the tenant-equivalence harness and the multi-tenant crash
#           suite (DESIGN.md §13)
#   ep      the Energy Planner's one step: the controller and the sim
#           replay journal the same verdicts over a prototype week, the
#           replay's determinism ledger hashes, the window-prefetch
#           pipeline matching the sequential replay and tearing down on
#           a planner error, the controller keeping its planner seed,
#           and the warm controller step's allocation budget (DESIGN.md
#           §4, §7); run it without -race, which allocates
set -eu

cd "$(dirname "$0")/.."

crash_gate='CrashRecoveryEveryFailpoint|CompactionRenameDurability|FailedCompactionLeavesCleanErrors|ProbeRecordsAreInvisible|JournalCrashRecoveryEveryFailpoint|JournalSyncsEveryEvent|DaemonDegradedMode|FleetCrashSharedWAL|RecorderCrashEveryFailpoint|DaemonDegradedFlightBundleCorrelation'
crash_pkgs='./internal/store ./internal/persistence ./internal/daemon ./internal/obs'

stream_gate='StreamEquivalence|ProxyStreamsLongPoll|PlanBodyMatchesETag'
stream_pkgs='./internal/daemon ./internal/cloud ./internal/controller'

fleet_gate='FleetTenantEquivalence|FleetCrashSharedWAL'
fleet_pkgs='./internal/daemon'

ep_gate='ControllerMatchesSimEP|RunDeterminismHashes|RunPipelineMatchesSequential|RunPipelineErrorPropagates|NewKeepsPlannerSeed|AllocsTraceControllerStep'
ep_pkgs='./internal/controller ./internal/sim'

# check_gate REGEX PKG...: a deleted or renamed test must not silently
# empty a gate.
check_gate() {
    regex="$1"
    shift
    listed=$(go test -list '.*' "$@" | grep -E '^(Test|Benchmark|Fuzz|Example)')
    for name in $(echo "$regex" | tr '|' ' '); do
        if ! echo "$listed" | grep -qE "$name"; then
            echo "gates: FAIL — gate name $name matches no test in $*" >&2
            exit 1
        fi
    done
}

suite="${1:-}"
[ $# -gt 0 ] && shift
case "$suite" in
check)
    check_gate "$@"
    exit 0
    ;;
crash)
    gate=$crash_gate pkgs=$crash_pkgs
    ;;
stream)
    gate=$stream_gate pkgs=$stream_pkgs
    ;;
fleet)
    gate=$fleet_gate pkgs=$fleet_pkgs
    ;;
ep)
    gate=$ep_gate pkgs=$ep_pkgs
    ;;
*)
    echo "usage: $0 check REGEX PKG... | crash|stream|fleet|ep [go test flag...]" >&2
    exit 2
    ;;
esac

# shellcheck disable=SC2086 # pkgs is a space-separated list
check_gate "$gate" $pkgs
# shellcheck disable=SC2086
go test -count=1 "$@" -run "$gate" $pkgs
