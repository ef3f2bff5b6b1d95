package controller

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/imcf/imcf/internal/core"
	"github.com/imcf/imcf/internal/device"
	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/metrics"
	"github.com/imcf/imcf/internal/units"
)

// TestFlipSentinelsMatchCore pins the numeric correspondence the
// journal.Recorder relies on when passing flip iterations through without
// translation.
func TestFlipSentinelsMatchCore(t *testing.T) {
	if core.FlipNever != journal.FlipNever {
		t.Fatalf("FlipNever mismatch: core %d, journal %d", core.FlipNever, journal.FlipNever)
	}
	if core.FlipRepair != journal.FlipRepair {
		t.Fatalf("FlipRepair mismatch: core %d, journal %d", core.FlipRepair, journal.FlipRepair)
	}
}

// TestStepJournalsEveryVerdict runs one EP cycle and asserts every rule
// in the report has exactly one journal event with matching verdict,
// slot, trace and budget accounting.
func TestStepJournalsEveryVerdict(t *testing.T) {
	j := journal.New(64)
	c := newController(t, func(cfg *Config) {
		cfg.Journal = j
		// A tight budget forces at least one drop at 03:00.
		cfg.WeeklyBudget = 2 * units.KilowattHour
	})

	tc := metrics.NewTrace()
	ctx := metrics.ContextWithTrace(context.Background(), tc)
	report, err := c.StepCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}

	total := len(report.Executed) + len(report.Dropped)
	evs := j.Recent(journal.Filter{})
	if len(evs) != total {
		t.Fatalf("%d journal events for %d verdicts: %+v", len(evs), total, evs)
	}
	for _, id := range report.Dropped {
		match := j.Recent(journal.Filter{Rule: id, Verdict: journal.VerdictDropped})
		if len(match) != 1 {
			t.Fatalf("dropped rule %s has %d journal events", id, len(match))
		}
		ev := match[0]
		if ev.Trace != tc.TraceIDString() {
			t.Errorf("event trace %q, want %q", ev.Trace, tc.TraceIDString())
		}
		if !ev.Slot.Equal(report.Time) {
			t.Errorf("event slot %v, want %v", ev.Slot, report.Time)
		}
		if ev.FCEDelta <= 0 {
			t.Errorf("dropped rule %s has FCEDelta %v", id, ev.FCEDelta)
		}
		if ev.FlipIter < journal.FlipRepair {
			t.Errorf("event flip iter %d below sentinels", ev.FlipIter)
		}
	}
	for _, id := range report.Executed {
		match := j.Recent(journal.Filter{Rule: id, Verdict: journal.VerdictExecuted})
		if len(match) != 1 {
			t.Fatalf("executed rule %s has %d journal events", id, len(match))
		}
	}
}

// TestStepJournalsManualMode pins that non-EP modes journal verdicts
// too (the planner recorder never fires there).
func TestStepJournalsManualMode(t *testing.T) {
	j := journal.New(64)
	c := newController(t, func(cfg *Config) {
		cfg.Journal = j
		cfg.Mode = ModeManual
	})
	report, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Dropped) == 0 {
		t.Fatal("manual mode executed rules")
	}
	evs := j.Recent(journal.Filter{Verdict: journal.VerdictDropped})
	if len(evs) != len(report.Dropped) {
		t.Fatalf("%d events for %d manual drops", len(evs), len(report.Dropped))
	}
	if evs[0].FlipIter != journal.FlipNever {
		t.Errorf("manual-mode event flip iter %d, want FlipNever", evs[0].FlipIter)
	}
}

// TestStepJournalWindowOrdinal pins that consecutive cycles stamp
// increasing window ordinals.
func TestStepJournalWindowOrdinal(t *testing.T) {
	j := journal.New(64)
	c := newController(t, func(cfg *Config) { cfg.Journal = j })
	for i := 0; i < 3; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	evs := j.Recent(journal.Filter{})
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	if first, last := evs[0].Window, evs[len(evs)-1].Window; first != 0 || last != 2 {
		t.Fatalf("window ordinals span %d..%d, want 0..2", first, last)
	}
}

// TestBlockedDeviceCarriesTrace follows a traced cycle into the
// firewall: a command refused because its rule was dropped must name
// the block, with the dropping rule in its reason and the cycle's trace
// ID.
func TestBlockedDeviceCarriesTrace(t *testing.T) {
	j := journal.New(64)
	c := newController(t, func(cfg *Config) {
		cfg.Journal = j
		cfg.WeeklyBudget = 2 * units.KilowattHour
	})
	tc := metrics.NewTrace()
	report, err := c.StepCtx(metrics.ContextWithTrace(context.Background(), tc))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Dropped) == 0 {
		t.Skip("budget did not force a drop at this hour")
	}
	// Find the dropped rule's device and command it.
	var dev device.Descriptor
	for _, d := range c.Registry().List() {
		if c.Firewall().Blocked(d.Addr) {
			dev = d
			break
		}
	}
	if dev.ID == "" {
		t.Fatal("no blocked device after a drop")
	}
	err = c.Command(dev.ID, 22)
	var blocked *BlockedError
	if !errors.As(err, &blocked) || !errors.Is(err, ErrBlocked) {
		t.Fatalf("Command on blocked device = %v, want a *BlockedError matching ErrBlocked", err)
	}
	if blocked.Addr != dev.Addr || blocked.Trace != tc.TraceIDString() {
		t.Fatalf("blocked error names %s trace %q, want %s trace %q",
			blocked.Addr, blocked.Trace, dev.Addr, tc.TraceIDString())
	}
	if !slices.ContainsFunc(report.Dropped, func(id string) bool { return strings.Contains(blocked.Reason, id) }) {
		t.Fatalf("blocked error reason %q names none of the dropped rules %v", blocked.Reason, report.Dropped)
	}
}
