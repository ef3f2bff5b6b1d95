package journal

import (
	"runtime"
	"testing"
	"time"
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

func BenchmarkJournalAppend(b *testing.B) {
	slot := time.Date(2025, 6, 1, 7, 0, 0, 0, time.UTC)
	e := Event{Slot: slot, Rule: "r1", Verdict: VerdictDropped, FlipIter: 3}

	j := New(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Append(e)
	}
}
