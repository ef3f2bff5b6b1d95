package controller

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/device"
	"github.com/imcf/imcf/internal/simclock"
	"github.com/imcf/imcf/internal/units"
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

// commandingBinding is a DirectBinding that, when the armed cycle turns
// off the target device, issues a manual Command for that device from
// another goroutine, the way an app request can arrive mid-cycle.
type commandingBinding struct {
	inner  Binding
	ctl    *Controller
	target string
	armed  atomic.Bool
	result chan error
}

func (b *commandingBinding) Apply(dev device.Descriptor, value float64) error {
	return b.inner.Apply(dev, value)
}

func (b *commandingBinding) TurnOff(dev device.Descriptor) error {
	err := b.inner.TurnOff(dev)
	if dev.ID == b.target && b.armed.CompareAndSwap(true, false) {
		done := make(chan struct{})
		go func() {
			b.result <- b.ctl.Command(b.target, 30)
			close(done)
		}()
		// Give a command that does not wait for the cycle the time to
		// land inside it; one that waits on the cycle cannot finish here.
		select {
		case <-done:
		case <-time.After(200 * time.Millisecond):
		}
	}
	return err
}

// TestCommandDuringStepSeesBlockSet pins that a manual command cannot
// slip through the firewall while a cycle reprograms it. A near-zero
// budget drops the night-heat rule at 03:00 and blocks the father's
// HVAC. During the 04:00 cycle's TurnOff of that HVAC, the binding
// commands it on at 30 °C from another goroutine: the command must be
// refused with ErrBlocked, and the HVAC must still be off.
func TestCommandDuringStepSeesBlockSet(t *testing.T) {
	const hvac = "proto/z0/hvac"
	clock := simclock.NewSimClock(winterNight)
	b := &commandingBinding{target: hvac, result: make(chan error, 1)}
	c := newController(t, func(cfg *Config) {
		cfg.Clock = clock
		cfg.WeeklyBudget = 0.001 * units.KilowattHour
		cfg.Binding = b
	})
	b.inner = &DirectBinding{Registry: c.Registry(), Firewall: c.Firewall(), Clock: clock}
	b.ctl = c

	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if err := c.Command(hvac, 30); !errors.Is(err, ErrBlocked) {
		t.Fatalf("after the 03:00 drop, Command = %v, want ErrBlocked", err)
	}
	clock.Advance(time.Hour)
	b.armed.Store(true)
	report, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(report.Dropped, "proto/father/night-heat") {
		t.Fatalf("04:00 cycle dropped %v, want the night-heat rule", report.Dropped)
	}
	select {
	case err := <-b.result:
		if !errors.Is(err, ErrBlocked) {
			t.Fatalf("Command during the 04:00 cycle = %v, want ErrBlocked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the mid-cycle command never ran")
	}
	_, st, _ := c.Registry().Get(hvac)
	if on, setpoint, _, _ := st.Snapshot(); on {
		t.Fatalf("blocked HVAC is on at %v after the cycle", setpoint)
	}
}
