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
