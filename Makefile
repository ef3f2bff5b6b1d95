GO ?= go

.PHONY: all build vet test race check lint bench fleet-suite metrics-smoke explain-smoke crash-suite obs-smoke stream-suite ep-suite

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the packages with dedicated concurrency machinery under the
# race detector (full -race ./... is covered by check).
race:
	$(GO) test -race ./internal/sim ./internal/bench ./internal/core

check:
	./scripts/check.sh

# lint runs the project-native static analyzer (see DESIGN.md §9 and
# §14). Any finding not excused by an //imcf:allow waiver fails the
# build; a stale waiver fails it too. -timing prints a per-rule cost
# breakdown.
lint:
	$(GO) run ./cmd/imcf-lint -timing ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# The -run regexes of the four suites below live in scripts/gates.sh,
# shared with check, which also fails a suite whose gate names match no
# test.
#
# fleet-suite runs the multi-home proof obligations in isolation,
# verbosely: the tenant-equivalence harness (bit-identical solo vs
# fleet-tenant hosting) and the multi-tenant kill-at-every-failpoint
# crash suite. Both are part of check.
fleet-suite:
	./scripts/gates.sh fleet -v

# crash-suite runs the kill-at-every-failpoint recovery harness (see
# DESIGN.md §11): store, journal and flight-recorder crash/recovery at
# every I/O failpoint, compaction-rename durability, and the daemon
# degraded-mode e2e tests. Part of check; this target reruns it in
# isolation, verbosely.
crash-suite:
	./scripts/gates.sh crash -v

# stream-suite reruns the delta-sync proof obligations in isolation,
# verbosely: the stream-equivalence harness (sync-maintained mirror
# bit-identical to poll-built and to controller memory, workers 1 and
# 8, across chaos-proxy disconnects and a daemon restart), a delta
# long-poll crossing the cloud relay's proxy, and GET /rest/plan racing
# steps (each body under its own ETag). Part of check.
stream-suite:
	./scripts/gates.sh stream -v

# ep-suite reruns the Energy Planner's proof obligations in isolation,
# verbosely: the controller/sim verdict cross-check, the determinism
# ledger hashes, the window-prefetch pipeline against the sequential
# replay and on a planner error, and the warm controller step's
# allocation budget. Part of check.
ep-suite:
	./scripts/gates.sh ep -v

# obs-smoke proves the flight recorder end to end: the degraded-flip
# e2e (a disk-full tenant produces a correlated bundle), then a live
# imcfd bundle via POST /debug/flight and SIGQUIT, read back with
# imcf-debug.
obs-smoke:
	./scripts/obs_smoke.sh

# metrics-smoke boots imcfd, runs a planning cycle and checks that
# /metrics serves the core families and /healthz reports ok.
metrics-smoke:
	./scripts/metrics_smoke.sh

# explain-smoke boots imcfd with persistence, forces a rule drop,
# restarts the daemon and checks imcf-explain answers "why was rule R
# dropped" from the replayed journal.
explain-smoke:
	./scripts/explain_smoke.sh
