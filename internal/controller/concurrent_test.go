package controller

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/simclock"
)

// Concurrent multi-tenant stepping: N controllers stepped by jobs on
// one Cron over one shared SimClock. These tests (run under -race by
// scripts/check.sh) pin the concurrency contract of cron.go in that
// regime: lockstep fan-out on Advance, per-job stop isolation and
// idempotent shutdown.

// waitPendingWaiters blocks until the clock has exactly want armed
// After channels — the signal that every fired job has finished and
// re-armed, so the next Advance is a clean lockstep cycle.
func waitPendingWaiters(t *testing.T, clk *simclock.SimClock, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for clk.PendingWaiters() != want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d armed waiters (have %d)", want, clk.PendingWaiters())
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestCronConcurrentMultiTenantStepping drives four controllers, one
// Cron job each, off one Cron and one SimClock, and asserts every
// tenant steps exactly once per cycle, that stopping one tenant's job
// leaves the others running, and that Stop is idempotent and final.
func TestCronConcurrentMultiTenantStepping(t *testing.T) {
	const tenants = 4
	clk := simclock.NewSimClock(winterNight)
	cron := NewCron(clk)

	var errCount atomic.Int64
	ctrls := make([]*Controller, tenants)
	stops := make([]func(), tenants)
	for i := range ctrls {
		i := i
		ctrls[i] = newController(t, func(cfg *Config) {
			cfg.Clock = clk
			cfg.Planner.Seed = uint64(100 + i)
		})
		stops[i] = cron.Every(time.Hour, func(time.Time) {
			if _, err := ctrls[i].Step(); err != nil {
				errCount.Add(1)
			}
		})
	}
	waitPendingWaiters(t, clk, tenants)

	const cycles = 6
	for c := 0; c < cycles; c++ {
		clk.Advance(time.Hour)
		waitPendingWaiters(t, clk, tenants)
	}
	for i, ctrl := range ctrls {
		if got := len(ctrl.History()); got != cycles {
			t.Errorf("tenant %d stepped %d times, want %d", i, got, cycles)
		}
	}
	if n := errCount.Load(); n != 0 {
		t.Errorf("scheduled steps reported %d errors", n)
	}

	// Stopping one tenant must not perturb its neighbors. A stop is
	// also idempotent per schedule. The stopped tenant's already-armed
	// (buffered) waiter is absorbed by the next Advance, after which
	// only the live tenants re-arm.
	stops[0]()
	stops[0]()
	clk.Advance(time.Hour)
	waitPendingWaiters(t, clk, tenants-1)
	if got := len(ctrls[0].History()); got != cycles {
		t.Errorf("stopped tenant stepped to %d, want frozen at %d", got, cycles)
	}
	for i := 1; i < tenants; i++ {
		if got := len(ctrls[i].History()); got != cycles+1 {
			t.Errorf("tenant %d stepped %d times, want %d", i, got, cycles+1)
		}
	}

	// Stop cancels everything, twice over; a post-Stop Every is a
	// registered no-op whose stop function is safe to call.
	cron.Stop()
	cron.Stop()
	fired := make(chan struct{}, 1)
	lateStop := cron.Every(time.Hour, func(time.Time) { fired <- struct{}{} })
	lateStop()
	clk.Advance(2 * time.Hour)
	select {
	case <-fired:
		t.Error("job scheduled after Stop fired")
	default:
	}
	for i, ctrl := range ctrls {
		want := cycles
		if i > 0 {
			want++
		}
		if got := len(ctrl.History()); got != want {
			t.Errorf("tenant %d stepped after Stop: %d, want %d", i, got, want)
		}
	}
}

// TestCronNilClockIsWallClock covers the RealClock default: jobs
// schedule and tear down cleanly without a simulated clock.
func TestCronNilClockIsWallClock(t *testing.T) {
	cron := NewCron(nil)
	stop := cron.Every(time.Hour, func(time.Time) {})
	stop()
	cron.Stop()
}
