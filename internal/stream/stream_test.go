package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func mustPublish(t *testing.T, h *Hub, site string, kind Kind, v any) uint64 {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := h.Publish(site, kind, data)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestPublishSnapshotRoundTrip(t *testing.T) {
	h := NewHub("boot-1", 8)
	if h.Instance() != "boot-1" {
		t.Fatalf("instance = %q", h.Instance())
	}
	if got := h.Seq(); got != 0 {
		t.Fatalf("fresh hub seq = %d", got)
	}
	s1 := mustPublish(t, h, "", KindMRT, map[string]int{"rules": 3})
	s2 := mustPublish(t, h, "", KindFirewall, []string{"-A OUTPUT -s 10.0.0.9 -j DROP"})
	if s1 != 1 || s2 != 2 {
		t.Fatalf("seqs = %d, %d", s1, s2)
	}
	snap := h.Snapshot()
	if snap.Instance != "boot-1" || snap.Seq != 2 || len(snap.State) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if string(snap.State["mrt"]) != `{"rules":3}` {
		t.Fatalf("mrt component = %s", snap.State["mrt"])
	}
	mrt, mrtSeq := h.Component("", KindMRT)
	fw, fwSeq := h.Component("", KindFirewall)
	if mrtSeq != 1 || fwSeq != 2 {
		t.Fatalf("component seqs = %d, %d", mrtSeq, fwSeq)
	}
	if string(mrt) != `{"rules":3}` || string(fw) != `["-A OUTPUT -s 10.0.0.9 -j DROP"]` {
		t.Fatalf("component data = %s, %s", mrt, fw)
	}
	if data, seq := h.Component("", KindPlan); seq != 0 || data != nil {
		t.Fatalf("unpublished component = %s at %d", data, seq)
	}
}

func TestPublishRejectsInvalidJSON(t *testing.T) {
	h := NewHub("i", 4)
	if _, err := h.Publish("", KindMRT, []byte("{nope")); err == nil {
		t.Fatal("invalid JSON accepted")
	}
	if h.Seq() != 0 {
		t.Fatal("failed publish consumed a sequence number")
	}
}

func TestPublishCanonicalizesWhitespace(t *testing.T) {
	h := NewHub("i", 4)
	if _, err := h.Publish("", KindPlan, []byte("{\n  \"a\": 1\n}\n")); err != nil {
		t.Fatal(err)
	}
	if got, _ := h.Snapshot().State["plan"], ""; string(got) != `{"a":1}` {
		t.Fatalf("stored = %q", got)
	}
}

// TestPublishKeepsCompactData: already-compact data is stored without a
// copy, while compacted data is copied out of the shared scratch, so a
// later publish cannot overwrite an earlier value.
func TestPublishKeepsCompactData(t *testing.T) {
	h := NewHub("i", 4)
	compact := []byte(`{"a":1}`)
	if _, err := h.Publish("", KindPlan, compact); err != nil {
		t.Fatal(err)
	}
	if got := h.Snapshot().State["plan"]; &got[0] != &compact[0] {
		t.Fatal("compact data was copied")
	}
	loose := []byte("{ \"a\": 2 }")
	if _, err := h.Publish("", KindPlan, loose); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Publish("", KindMRT, []byte("[ 1, 2 ]")); err != nil {
		t.Fatal(err)
	}
	loose[3] = 'X'
	snap := h.Snapshot()
	if got := string(snap.State["plan"]); got != `{"a":2}` {
		t.Fatalf("plan = %q after a later publish", got)
	}
	if got := string(snap.State["mrt"]); got != `[1,2]` {
		t.Fatalf("mrt = %q", got)
	}
}

func TestSinceResumesAndCoalesces(t *testing.T) {
	h := NewHub("i", 16)
	mustPublish(t, h, "", KindMRT, 1)
	mustPublish(t, h, "", KindPlan, 10)
	mustPublish(t, h, "", KindPlan, 11)
	mustPublish(t, h, "", KindPlan, 12)
	mustPublish(t, h, "", KindFirewall, []string{"x"})

	b, ok := h.Since("i", 1)
	if !ok {
		t.Fatal("resume from 1 refused")
	}
	if b.Through != 5 {
		t.Fatalf("through = %d", b.Through)
	}
	// Three plan events coalesce into one (the newest), plus firewall.
	if len(b.Events) != 2 {
		t.Fatalf("events = %+v", b.Events)
	}
	if b.Events[0].Kind != KindPlan || string(b.Events[0].Data) != "12" || b.Events[0].Seq != 4 {
		t.Fatalf("coalesced plan = %+v", b.Events[0])
	}
	if b.Events[1].Kind != KindFirewall {
		t.Fatalf("events = %+v", b.Events)
	}

	// Resuming from the batch's Through yields an empty batch.
	b2, ok := h.Since("i", b.Through)
	if !ok || len(b2.Events) != 0 || b2.Through != 5 {
		t.Fatalf("steady resume = %+v, %v", b2, ok)
	}
}

func TestSinceRefusesUnresumablePositions(t *testing.T) {
	h := NewHub("boot-2", 4)
	for i := 0; i < 10; i++ {
		mustPublish(t, h, "", KindPlan, i)
	}
	// Wrong instance: a producer restart.
	if _, ok := h.Since("boot-1", 9); ok {
		t.Fatal("cross-instance resume accepted")
	}
	// Ahead of the hub.
	if _, ok := h.Since("boot-2", 11); ok {
		t.Fatal("future position accepted")
	}
	// Older than the ring (cap 4, seq 10: ring holds 7..10; 5 is gone).
	if _, ok := h.Since("boot-2", 5); ok {
		t.Fatal("pre-ring gap accepted")
	}
	// The oldest complete position still resumes.
	if b, ok := h.Since("boot-2", 6); !ok || len(b.Events) != 1 || string(b.Events[0].Data) != "9" {
		t.Fatalf("ring-edge resume = %+v, %v", b, ok)
	}
}

func TestWaitWakesOnPublish(t *testing.T) {
	h := NewHub("i", 4)
	mustPublish(t, h, "", KindMRT, 1)

	// Already-available events return immediately.
	if !h.Wait(context.Background(), 0) {
		t.Fatal("Wait(0) with seq=1 returned false")
	}

	done := make(chan bool, 1)
	go func() { done <- h.Wait(context.Background(), 1) }()
	time.Sleep(10 * time.Millisecond) // let the waiter park
	mustPublish(t, h, "", KindPlan, 2)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("woken waiter reported no events")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("publish did not wake the waiter")
	}
}

// TestNotifyChannelOnlyWhileParked: a publish with nobody waiting makes
// no wake-up channel; a parked Wait makes one, and the publish that
// wakes it leaves none behind.
func TestNotifyChannelOnlyWhileParked(t *testing.T) {
	h := NewHub("i", 4)
	notify := func() chan struct{} {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.notify
	}
	mustPublish(t, h, "", KindMRT, 1)
	if notify() != nil {
		t.Fatal("publish without waiters made a wake-up channel")
	}
	done := make(chan bool, 1)
	go func() { done <- h.Wait(context.Background(), 1) }()
	deadline := time.Now().Add(2 * time.Second)
	for notify() == nil {
		if time.Now().After(deadline) {
			t.Fatal("parked Wait made no wake-up channel")
		}
		time.Sleep(time.Millisecond)
	}
	mustPublish(t, h, "", KindPlan, 2)
	if ok := <-done; !ok {
		t.Fatal("woken waiter reported no events")
	}
	if notify() != nil {
		t.Fatal("publish left a wake-up channel behind")
	}
}

func TestWaitHonorsContextAndClose(t *testing.T) {
	h := NewHub("i", 4)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() { done <- h.Wait(ctx, 0) }()
	cancel()
	if ok := <-done; ok {
		t.Fatal("cancelled Wait reported events")
	}

	go func() { done <- h.Wait(context.Background(), 0) }()
	time.Sleep(10 * time.Millisecond)
	h.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("closed-hub Wait reported events")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake the waiter")
	}
	// Close is idempotent; Wait after Close returns immediately.
	h.Close()
	if h.Wait(context.Background(), 99) {
		t.Fatal("Wait after Close reported events")
	}
}

func TestConcurrentPublishersAndWaiters(t *testing.T) {
	h := NewHub("i", DefaultRingCap)
	const n = 50
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen uint64
			for seen < n {
				if !h.Wait(context.Background(), seen) {
					return
				}
				b, ok := h.Since("i", seen)
				if !ok {
					// fell behind the ring — resync from the snapshot
					seen = h.Snapshot().Seq
					continue
				}
				seen = b.Through
			}
		}()
	}
	for i := 0; i < n; i++ {
		mustPublish(t, h, "", KindPlan, i)
	}
	wg.Wait()
	if h.Seq() != n {
		t.Fatalf("seq = %d", h.Seq())
	}
}

func TestMirrorSnapshotDeltaConvergence(t *testing.T) {
	h := NewHub("i", 32)
	mustPublish(t, h, "", KindMRT, map[string]any{"rules": []int{1, 2}})
	mustPublish(t, h, "", KindFirewall, []string{"a"})

	// Mirror A: snapshot at seq 2, then deltas.
	a := NewMirror()
	a.ApplySnapshot(h.Snapshot())

	mustPublish(t, h, "", KindPlan, map[string]float64{"energy": 1.5})
	mustPublish(t, h, "", KindFirewall, []string{"a", "b"})

	inst, seq := a.Position()
	b, ok := h.Since(inst, seq)
	if !ok {
		t.Fatal("resume refused")
	}
	if err := a.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}

	// Mirror B: one snapshot at the end.
	bm := NewMirror()
	bm.ApplySnapshot(h.Snapshot())

	if !bytes.Equal(a.Canonical(), bm.Canonical()) {
		t.Fatalf("delta-built %s != snapshot-built %s", a.Canonical(), bm.Canonical())
	}
	if a.Seq() != bm.Seq() || a.Seq() != 4 {
		t.Fatalf("seqs = %d, %d", a.Seq(), bm.Seq())
	}
}

func TestMirrorRejectsCrossInstanceBatch(t *testing.T) {
	m := NewMirror()
	m.ApplySnapshot(Snapshot{Instance: "x", Seq: 3, State: map[string]json.RawMessage{}})
	if err := m.ApplyBatch(Batch{Instance: "y", Through: 9}); err == nil {
		t.Fatal("cross-instance batch accepted")
	}
	if m.Seq() != 3 {
		t.Fatalf("rejected batch moved seq to %d", m.Seq())
	}
}

func TestMirrorSkipsReplayedEvents(t *testing.T) {
	m := NewMirror()
	m.ApplySnapshot(Snapshot{Instance: "i", Seq: 2, State: map[string]json.RawMessage{
		"plan": json.RawMessage(`1`),
	}})
	err := m.ApplyBatch(Batch{Instance: "i", Through: 4, Events: []Event{
		{Seq: 2, Kind: KindPlan, Data: json.RawMessage(`0`)}, // replay: skipped
		{Seq: 3, Kind: KindPlan, Data: json.RawMessage(`7`)}, // applied
		{Seq: 4, Kind: KindMRT, Data: nil},                   // no data, absent key
	}})
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := m.Get("", KindPlan)
	if !ok || string(raw) != "7" {
		t.Fatalf("plan = %s, %v", raw, ok)
	}
	if m.Seq() != 4 {
		t.Fatalf("seq = %d", m.Seq())
	}
}

func TestMirrorDecodeGetKeys(t *testing.T) {
	m := NewMirror()
	if err := m.Set("", KindFirewall, []byte(`[ "r1", "r2" ]`)); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("site", KindMRT, []byte(`{"rules":[]}`)); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("", KindPlan, []byte(`{broken`)); err == nil {
		t.Fatal("invalid JSON accepted by Set")
	}
	var rulesList []string
	ok, err := m.Decode("", KindFirewall, &rulesList)
	if !ok || err != nil || len(rulesList) != 2 {
		t.Fatalf("decode = %v, %v, %v", ok, err, rulesList)
	}
	if ok, _ := m.Decode("", KindPlan, &rulesList); ok {
		t.Fatal("absent component decoded")
	}
	if _, ok := m.Get("", KindPlan); ok {
		t.Fatal("absent component present")
	}
	want := []string{"firewall", "site/mrt"}
	got := m.Keys()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("keys = %v", got)
	}
	// Set(nil) removes.
	if err := m.Set("site", KindMRT, nil); err != nil {
		t.Fatal(err)
	}
	if len(m.Keys()) != 1 {
		t.Fatalf("keys after removal = %v", m.Keys())
	}
	// Canonical state ignores how values were written: Set compacted the
	// spaced firewall list.
	if want := `{"firewall":["r1","r2"]}`; string(m.Canonical()) != want {
		t.Fatalf("canonical = %s", m.Canonical())
	}
}

func TestEventKeyAndSplit(t *testing.T) {
	cases := []struct {
		site string
		kind Kind
		key  string
	}{
		{"", KindMRT, "mrt"},
		{"dorm-a", KindPlan, "dorm-a/plan"},
	}
	for _, tc := range cases {
		ev := Event{Site: tc.site, Kind: tc.kind}
		if ev.Key() != tc.key {
			t.Errorf("key(%q,%q) = %q", tc.site, tc.kind, ev.Key())
		}
	}
}

func TestRingOverflowForcesSnapshot(t *testing.T) {
	// A mirror that sleeps through more deltas than the ring holds must
	// detect the gap, resync from a snapshot, and still converge.
	h := NewHub("i", 4)
	m := NewMirror()
	m.ApplySnapshot(h.Snapshot())
	for i := 0; i < 20; i++ {
		mustPublish(t, h, "", KindPlan, i)
		mustPublish(t, h, "", KindFirewall, []string{fmt.Sprint(i)})
	}
	inst, seq := m.Position()
	if _, ok := h.Since(inst, seq); ok {
		t.Fatal("gap resume accepted")
	}
	m.ApplySnapshot(h.Snapshot())
	ref := NewMirror()
	ref.ApplySnapshot(h.Snapshot())
	if !bytes.Equal(m.Canonical(), ref.Canonical()) {
		t.Fatal("post-resync state diverged")
	}
}

func TestDefaultRingCap(t *testing.T) {
	h := NewHub("i", 0)
	if got := cap(h.ring); got != DefaultRingCap {
		t.Fatalf("default ring cap = %d", got)
	}
}
