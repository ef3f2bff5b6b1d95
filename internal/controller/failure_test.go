package controller

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/device"
	"github.com/imcf/imcf/internal/simclock"
)

// flakyBinding fails every n-th actuation, modelling a device that
// drops commands (the paper's unencrypted HTTP links are lossy in
// practice).
type flakyBinding struct {
	mu    sync.Mutex
	n     int
	calls int
	fails int
}

var errFlaky = errors.New("device timed out")

func (b *flakyBinding) tick() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls++
	if b.n > 0 && b.calls%b.n == 0 {
		b.fails++
		return errFlaky
	}
	return nil
}

func (b *flakyBinding) Apply(device.Descriptor, float64) error { return b.tick() }
func (b *flakyBinding) TurnOff(device.Descriptor) error        { return b.tick() }

func TestStepSurvivesBindingFailures(t *testing.T) {
	flaky := &flakyBinding{n: 3}
	clock := simclock.NewSimClock(time.Date(2015, time.January, 5, 0, 0, 0, 0, time.UTC))
	c := newController(t, func(cfg *Config) {
		cfg.Clock = clock
		cfg.Binding = flaky
	})

	var stepErrs int
	for i := 0; i < 48; i++ {
		if _, err := c.Step(); err != nil {
			if !errors.Is(err, errFlaky) && !strings.Contains(err.Error(), "timed out") {
				t.Fatalf("unexpected error class: %v", err)
			}
			stepErrs++
		}
		clock.Advance(time.Hour)
	}
	// Failures surfaced but did not stop the loop, and accounting
	// stayed consistent.
	if flaky.fails == 0 {
		t.Fatal("flaky binding never fired")
	}
	if stepErrs == 0 {
		t.Fatal("binding failures were swallowed")
	}
	sum := c.Summary()
	if sum.Steps != 48 {
		t.Errorf("steps = %d, want 48 (every cycle counted)", sum.Steps)
	}
	if sum.ExecutedRuleSlots == 0 || sum.Energy <= 0 {
		t.Errorf("summary degenerate after failures: %+v", sum)
	}
	if sum.ExecutedRuleSlots > sum.ActiveRuleSlots {
		t.Errorf("executed %d > active %d", sum.ExecutedRuleSlots, sum.ActiveRuleSlots)
	}
}
