package persistence

import (
	"fmt"
	"testing"

	"github.com/imcf/imcf/internal/faultfs"
	"github.com/imcf/imcf/internal/journal"
)

// The journal's crash suite mirrors the store's: enumerate every file
// operation a scripted append workload performs, crash at each one,
// reboot, and assert the log always reopens and replays cleanly and
// that no acknowledged event is lost.

const journalCrashEvents = 6

func journalWorkload(t *testing.T, fsys faultfs.FS) (acked int, dead bool) {
	t.Helper()
	l, err := OpenJournal("/jnl", fsys)
	if err != nil {
		return 0, true
	}
	for i := 0; i < journalCrashEvents; i++ {
		if err := l.AppendEvent(journalEvent(i)); err != nil {
			return acked, true
		}
		acked++
	}
	if err := l.Close(); err != nil {
		return acked, true
	}
	return acked, false
}

func countJournalOps(t *testing.T) int {
	t.Helper()
	faulty := faultfs.NewFaulty(faultfs.NewMemFS(), nil)
	if acked, dead := journalWorkload(t, faulty); dead || acked != journalCrashEvents {
		t.Fatalf("fault-free workload failed: acked=%d dead=%v", acked, dead)
	}
	return faulty.Ops()
}

// TestJournalCrashRecoveryEveryFailpoint crashes the workload at every
// failpoint, with and without tearing unsynced pages. The journal
// fsyncs every event, the syncEvery=1 of the subtest names.
func TestJournalCrashRecoveryEveryFailpoint(t *testing.T) {
	for _, tear := range []uint64{0, 0xD15C} {
		t.Run(fmt.Sprintf("syncEvery=1/tear=%#x", tear), func(t *testing.T) {
			total := countJournalOps(t)
			if total < journalCrashEvents {
				t.Fatalf("suspiciously few failpoints: %d", total)
			}
			for n := 0; n < total; n++ {
				mem := faultfs.NewMemFS()
				faulty := faultfs.NewFaulty(mem, faultfs.CrashAt(n))
				acked, deadAfter := journalWorkload(t, faulty)
				if !faulty.Dead() && !deadAfter {
					t.Fatalf("failpoint %d never fired (ops=%d)", n, faulty.Ops())
				}
				if tear == 0 {
					mem.Crash()
				} else {
					mem.CrashTearing(tear)
				}

				// Reboot: reopen and replay must always succeed.
				l, err := OpenJournal("/jnl", mem)
				if err != nil {
					t.Fatalf("failpoint %d: reopen failed: %v", n, err)
				}
				var got []journal.Event
				cnt, err := l.Replay(func(ev journal.Event) { got = append(got, ev) })
				if err != nil {
					t.Fatalf("failpoint %d: replay failed: %v", n, err)
				}
				if cnt > journalCrashEvents {
					t.Fatalf("failpoint %d: replayed %d events, more than ever written", n, cnt)
				}
				// Every acked event survives, in order, as a prefix of
				// the workload.
				if cnt < acked {
					t.Fatalf("failpoint %d: lost acked events: replayed %d < acked %d", n, cnt, acked)
				}
				for i, ev := range got {
					if ev != journalEvent(i) {
						t.Fatalf("failpoint %d: event %d = %+v, want %+v", n, i, ev, journalEvent(i))
					}
				}
				// The rebooted log accepts new appends.
				if err := l.AppendEvent(journalEvent(journalCrashEvents)); err != nil {
					t.Fatalf("failpoint %d: post-recovery append: %v", n, err)
				}
				if err := l.Close(); err != nil {
					t.Fatalf("failpoint %d: post-recovery close: %v", n, err)
				}
			}
		})
	}
}

// TestJournalSyncsEveryEvent pins the journal's one durability
// cadence: N appends make N fsyncs of the log, and Close, with nothing
// left unsynced, adds none.
func TestJournalSyncsEveryEvent(t *testing.T) {
	mem := faultfs.NewMemFS()
	var syncs int
	inj := faultfs.InjectorFunc(func(op faultfs.FaultOp) *faultfs.Fault {
		if op.Op == faultfs.OpSync {
			syncs++
		}
		return nil
	})
	l, err := OpenJournal("/jnl", faultfs.NewFaulty(mem, inj))
	if err != nil {
		t.Fatal(err)
	}
	const events = 7
	for i := 0; i < events; i++ {
		if err := l.AppendEvent(journalEvent(i)); err != nil {
			t.Fatal(err)
		}
		if syncs != i+1 {
			t.Fatalf("after %d appends: %d fsyncs, want %d", i+1, syncs, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if syncs != events {
		t.Fatalf("Close fsynced: %d fsyncs after %d appends and Close, want %d", syncs, events, events)
	}
}
