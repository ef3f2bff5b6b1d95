package journal

import (
	"testing"
	"time"

	"github.com/imcf/imcf/internal/rules"
)

// TestRecorderNamesPlannedRules binds a recorder to a plan whose
// problem indices skip an unplanned rule and checks each callback
// becomes an event for rules[planned[i]], stamped with the bound slot,
// window and trace.
func TestRecorderNamesPlannedRules(t *testing.T) {
	j := New(8)
	r := NewRecorder(j)
	slot := time.Date(2015, time.January, 5, 3, 0, 0, 0, time.UTC)
	active := []rules.MetaRule{
		{ID: "a", Owner: "Father"},
		{ID: "n", Owner: "Mother", Necessity: true},
		{ID: "b", Owner: "Daughter"},
	}
	r.Bind(slot, 7, "trace-1", active, []int{0, 2})
	r.RecordDecision(0, true, 3, 0.5, 0.6, 0)
	r.RecordDecision(1, false, FlipRepair, 0.5, 0.4, 0.25)

	evs := j.Recent(Filter{})
	want := []Event{
		{Seq: 1, Slot: slot, Window: 7, Rule: "a", Owner: "Father", Verdict: VerdictExecuted, Trace: "trace-1",
			EpRemainingKWh: 0.5, EnergyKWh: 0.6, FlipIter: 3},
		{Seq: 2, Slot: slot, Window: 7, Rule: "b", Owner: "Daughter", Verdict: VerdictDropped, Trace: "trace-1",
			EpRemainingKWh: 0.5, EnergyKWh: 0.4, FCEDelta: 0.25, FlipIter: FlipRepair},
	}
	if len(evs) != len(want) {
		t.Fatalf("%d events, want %d: %+v", len(evs), len(want), evs)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, evs[i], want[i])
		}
	}
}

// TestRecorderStoresSlotInUTC binds a slot in a non-UTC zone and checks
// the sink and the ring both receive it as the same UTC time, written
// the same way.
func TestRecorderStoresSlotInUTC(t *testing.T) {
	j := New(8)
	sink := &recordingSink{}
	j.SetSink(sink)
	r := NewRecorder(j)
	slot := time.Date(2015, time.January, 5, 3, 0, 0, 0, time.FixedZone("CET", 3600))
	r.Bind(slot, 0, "", []rules.MetaRule{{ID: "a"}}, []int{0})
	r.RecordDecision(0, true, FlipNever, 1, 0.5, 0)

	evs := j.Recent(Filter{})
	if len(evs) != 1 || len(sink.got) != 1 {
		t.Fatalf("ring holds %d events, sink got %d; want 1 each", len(evs), len(sink.got))
	}
	if want := slot.UTC(); evs[0].Slot != want || sink.got[0].Slot != want {
		t.Fatalf("ring slot %v, sink slot %v, want %v", evs[0].Slot, sink.got[0].Slot, want)
	}
}
