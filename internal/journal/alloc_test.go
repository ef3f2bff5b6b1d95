package journal

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestAllocsTraceJournalAppend pins the zero-alloc recorder contract:
// a sink-free journal appends by ring assignment without heap
// allocation. check.sh gates on this (go test -run AllocsTrace).
func TestAllocsTraceJournalAppend(t *testing.T) {
	slot := time.Date(2025, 6, 1, 7, 0, 0, 0, time.UTC)
	e := Event{Slot: slot, Rule: "r1", Verdict: VerdictDropped, FlipIter: 3}

	j := New(64)
	if n := testing.AllocsPerRun(200, func() { j.Append(e) }); n != 0 {
		t.Fatalf("Append allocates %v per op, want 0", n)
	}
}

// TestAllocsTraceJournalFullRing pins the growing ring's allocation
// budget: filling a journal from empty allocates at most one block per
// blockLen events, and once the ring has reached its cap an Append
// allocates nothing. check.sh gates on this with the test above.
func TestAllocsTraceJournalFullRing(t *testing.T) {
	slot := time.Date(2025, 6, 1, 7, 0, 0, 0, time.UTC)
	e := Event{Slot: slot, Rule: "r1", Verdict: VerdictDropped, FlipIter: 3}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	for _, capacity := range []int{1, 255, 256, 300, DefaultCap} {
		j := New(capacity)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < capacity; i++ {
			j.Append(e)
		}
		runtime.ReadMemStats(&after)
		blocks := uint64((capacity + blockLen - 1) / blockLen)
		if fill := after.Mallocs - before.Mallocs; fill > blocks {
			t.Errorf("cap %d: filling from empty allocated %d times, want at most %d", capacity, fill, blocks)
		}
		if n := testing.AllocsPerRun(200, func() { j.Append(e) }); n != 0 {
			t.Errorf("cap %d: Append on a full ring allocates %v per op, want 0", capacity, n)
		}
	}
}

// TestAllocsTraceJournalLayout pins the ring's two records: a verdict's
// entry at 40 bytes or less and a plan's frame at 48 or less. At the
// default cap a full ring is 4,096 entries per tenant, so a field that
// widens either shows up in every hosted home's heap.
func TestAllocsTraceJournalLayout(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size > 40 {
		t.Errorf("ring entry is %d bytes, want at most 40", size)
	}
	if size := unsafe.Sizeof(frame{}); size > 48 {
		t.Errorf("ring frame is %d bytes, want at most 48", size)
	}
}

// TestAllocsTraceJournalBytesPerEvent pins what a default ring costs
// per event retained: filled, and then turned over twice, with input
// shaped like a controller's steps (a dozen rules, three verdicts per
// plan, a trace on every other plan), it holds at most 56 heap bytes
// per event — the journal's whole footprint, entries, frames, rule
// table and bookkeeping.
func TestAllocsTraceJournalBytesPerEvent(t *testing.T) {
	const perFrame, ruleCount = 3, 12
	rules := make([]string, ruleCount)
	for i := range rules {
		rules[i] = fmt.Sprintf("rule-%02d", i)
	}
	steps := 3 * DefaultCap / perFrame
	traces := make([]string, steps)
	for i := range traces {
		if i%2 == 0 {
			traces[i] = fmt.Sprintf("%032x", i)
		}
	}
	epoch := time.Date(2021, 1, 4, 0, 0, 0, 0, time.UTC)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// Two collections first: the second empties the sync.Pool victim
	// caches the first one kept, which would otherwise be freed inside
	// the measurement.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	j := New(0)
	for step := 0; step < steps; step++ {
		for k := 0; k < perFrame; k++ {
			j.Append(Event{
				Slot: epoch.Add(time.Duration(step%168) * time.Hour), Window: step,
				Rule: rules[(step+k)%ruleCount], Owner: "alice", Verdict: VerdictExecuted,
				Trace: traces[step], EpRemainingKWh: 1.5, EnergyKWh: 0.25, FlipIter: FlipNever,
			})
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rules)
	runtime.KeepAlive(traces)
	runtime.KeepAlive(j)
	if j.Len() != DefaultCap {
		t.Fatalf("Len = %d, want %d", j.Len(), DefaultCap)
	}
	perEvent := float64(after.HeapAlloc-before.HeapAlloc) / DefaultCap
	if perEvent > 56 {
		t.Fatalf("a full default ring retains %.1f heap bytes per event, want at most 56", perEvent)
	}
	t.Logf("%.1f heap bytes per event", perEvent)
}

func BenchmarkJournalAppend(b *testing.B) {
	slot := time.Date(2025, 6, 1, 7, 0, 0, 0, time.UTC)
	e := Event{Slot: slot, Rule: "r1", Verdict: VerdictDropped, FlipIter: 3}

	j := New(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Append(e)
	}
}
