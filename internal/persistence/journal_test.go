package persistence

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/journal"
)

func journalEvent(i int) journal.Event {
	return journal.Event{
		Seq:            uint64(i + 1),
		Slot:           time.Date(2025, 6, 1, i%24, 0, 0, 0, time.UTC),
		Window:         i,
		Rule:           "rule-heating",
		Owner:          "alice",
		Verdict:        journal.VerdictDropped,
		Trace:          "0af7651916cd43dd8448eb211c80319c",
		EpRemainingKWh: 0.4,
		EnergyKWh:      1.2,
		FCEDelta:       0.7,
		FlipIter:       i,
	}
}

func TestJournalLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.AppendEvent(journalEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.AppendEvent(journalEvent(9)); err == nil {
		t.Fatal("append after close succeeded")
	}

	// Reopen appends; replay sees both sessions.
	l2, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close() //nolint:errcheck // test cleanup
	if err := l2.AppendEvent(journalEvent(3)); err != nil {
		t.Fatal(err)
	}
	var got []journal.Event
	n, err := l2.Replay(func(ev journal.Event) { got = append(got, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || len(got) != 4 {
		t.Fatalf("replayed %d events, want 4", n)
	}
	want := journalEvent(2)
	if got[2] != want {
		t.Fatalf("event 2 = %+v, want %+v", got[2], want)
	}
}

func TestJournalLogTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEvent(journalEvent(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a truncated, newline-free tail.
	path := filepath.Join(dir, JournalFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"ru`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close() //nolint:errcheck // test cleanup
	n, err := l2.Replay(func(journal.Event) {})
	if err != nil {
		t.Fatalf("torn tail must not fail replay: %v", err)
	}
	if n != 1 {
		t.Fatalf("replayed %d events, want 1", n)
	}
}

func TestJournalLogMalformedInterior(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, JournalFile)
	// A torn page can mangle a record in the middle of the file, not
	// just the tail. Replay salvages everything around it.
	if err := os.WriteFile(path, []byte("{\"seq\":1}\nnot json\n{\"seq\":3}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck // test cleanup
	var seqs []uint64
	n, err := l.Replay(func(ev journal.Event) { seqs = append(seqs, ev.Seq) })
	if err != nil {
		t.Fatalf("malformed interior line must not fail replay: %v", err)
	}
	if n != 2 || len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 3 {
		t.Fatalf("replay salvaged %d events (%v), want seqs [1 3]", n, seqs)
	}
}

func TestOpenJournalErrors(t *testing.T) {
	if _, err := OpenJournal("", nil); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := OpenJournalFile("", nil); err == nil {
		t.Fatal("empty path accepted")
	}
}

func TestJournalLogAsSink(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	j := journal.New(8)
	j.SetSink(l)
	j.Append(journal.Event{Rule: "r1", Verdict: journal.VerdictExecuted})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: preload the persisted events into a fresh journal.
	l2, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close() //nolint:errcheck // test cleanup
	j2 := journal.New(8)
	if _, err := l2.Replay(j2.Preload); err != nil {
		t.Fatal(err)
	}
	got := j2.Recent(journal.Filter{})
	if len(got) != 1 || got[0].Rule != "r1" || got[0].Seq != 1 {
		t.Fatalf("restarted journal = %+v", got)
	}
}
