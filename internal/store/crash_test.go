package store

import (
	"fmt"
	"sort"
	"strings"
	"syscall"
	"testing"

	"github.com/imcf/imcf/internal/faultfs"
)

// The crash-recovery suite: a scripted workload of puts, overwrites,
// probes and compactions — the writes the controller and daemon make —
// runs against a faultfs.MemFS; the harness enumerates every
// instrumented file operation the workload performs, then re-runs it
// once per failpoint with a simulated crash there, reboots
// (MemFS.Crash) and reopens. Invariants checked at every single
// failpoint:
//
//   - reopen never fails;
//   - the recovered contents equal the state after some prefix of the
//     workload's mutations (atomicity — no half-applied op, no stale
//     value replayed over a newer one);
//   - that prefix includes every acknowledged mutation (durability —
//     an acked write is never lost);
//   - the reopened store accepts new writes.

// crashStep is one logical mutation of the scripted workload.
type crashStep struct {
	name  string
	apply func(db *DB) error
	model func(m map[string]string)
}

func put(key, val string) crashStep {
	return crashStep{
		name:  fmt.Sprintf("put %s=%s", key, val),
		apply: func(db *DB) error { return db.Put(key, []byte(val)) },
		model: func(m map[string]string) { m[key] = val },
	}
}

func probe() crashStep {
	return crashStep{
		name:  "probe",
		apply: func(db *DB) error { return db.Probe() },
		model: func(m map[string]string) {},
	}
}

func compact() crashStep {
	return crashStep{
		name:  "compact",
		apply: func(db *DB) error { return db.Compact() },
		model: func(m map[string]string) {},
	}
}

// crashWorkload mixes puts, overwrites and probes with explicit
// compactions; automatic compaction is additionally triggered by
// CompactEvery in the harness options. The overwrites make a stale
// log replayed over a newer snapshot visible as a state that never
// existed.
func crashWorkload() []crashStep {
	return []crashStep{
		put("mrt/rule1", "hvac<=24"),
		put("mrt/rule2", "light-off"),
		put("profile/week", strings.Repeat("0.42,", 40)),
		probe(),
		put("mrt/rule2", "light-dim"),
		put("mrt/rule3", "shift-wash"),
		compact(),
		put("mrt/rule1", "hvac<=26"),
		probe(),
		put("summary/fce", "0.93"),
		put("profile/week", "fresh"),
		put("summary/fe", "12.5"),
		compact(),
		put("post/compact", "tail"),
	}
}

func encodeState(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(m[k])
		sb.WriteByte('|')
	}
	return sb.String()
}

func dumpState(db *DB) string {
	m := make(map[string]string)
	for _, k := range db.Keys("") {
		v, _ := db.Get(k)
		m[k] = string(v)
	}
	return encodeState(m)
}

func cloneState(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// countWorkloadOps runs the workload fault-free and reports how many
// instrumented file operations it performs — the failpoint count.
func countWorkloadOps(t *testing.T) int {
	t.Helper()
	faulty := faultfs.NewFaulty(faultfs.NewMemFS(), nil)
	db, err := Open(Options{Dir: "/db", CompactEvery: 4, FS: faulty})
	if err != nil {
		t.Fatalf("fault-free open: %v", err)
	}
	for _, st := range crashWorkload() {
		if err := st.apply(db); err != nil {
			t.Fatalf("fault-free %s: %v", st.name, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("fault-free close: %v", err)
	}
	return faulty.Ops()
}

// runCrashAt replays the workload with a crash at failpoint n and
// checks the recovery invariants.
func runCrashAt(t *testing.T, n int, tearSeed uint64) {
	t.Helper()
	mem := faultfs.NewMemFS()
	faulty := faultfs.NewFaulty(mem, faultfs.CrashAt(n))
	opts := Options{Dir: "/db", CompactEvery: 4, FS: faulty}

	empty := encodeState(nil)
	states := []string{empty}
	model := make(map[string]string)
	acked := 0

	db, err := Open(opts)
	if err == nil {
		for _, st := range crashWorkload() {
			aerr := st.apply(db)
			next := cloneState(model)
			st.model(next)
			model = next
			states = append(states, encodeState(model))
			if aerr == nil {
				acked = len(states) - 1
			}
			if faulty.Dead() {
				break
			}
		}
		db.Close() //nolint:errcheck // the close may be the crash point
	}
	if !faulty.Dead() {
		t.Fatalf("failpoint %d never fired (ops=%d)", n, faulty.Ops())
	}

	// Power loss and reboot.
	if tearSeed == 0 {
		mem.Crash()
	} else {
		mem.CrashTearing(tearSeed)
	}

	db2, err := Open(Options{Dir: "/db", FS: mem})
	if err != nil {
		t.Fatalf("failpoint %d: reopen failed: %v", n, err)
	}
	defer db2.Close() //nolint:errcheck

	got := dumpState(db2)
	found := false
	for i := acked; i < len(states); i++ {
		if got == states[i] {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("failpoint %d (tear=%#x): recovered state %q not in valid states[%d:%d] %q",
			n, tearSeed, got, acked, len(states), states[acked:])
	}

	// The recovered store must accept new writes.
	if err := db2.Put("recovery/key", []byte("ok")); err != nil {
		t.Fatalf("failpoint %d: post-recovery put: %v", n, err)
	}
}

// TestCrashRecoveryEveryFailpoint is the tentpole gate: kill at every
// failpoint × clean vs torn tails. The store always fsyncs, which the
// sync=true in each subtest name records.
func TestCrashRecoveryEveryFailpoint(t *testing.T) {
	for _, tear := range []uint64{0, 0xC0FFEE} {
		t.Run(fmt.Sprintf("sync=true/tear=%#x", tear), func(t *testing.T) {
			total := countWorkloadOps(t)
			if total < 40 {
				t.Fatalf("suspiciously few failpoints: %d", total)
			}
			for n := 0; n < total; n++ {
				runCrashAt(t, n, tear)
			}
		})
	}
}

// TestCompactionRenameDurability is the regression test for the
// torn-compaction window: a crash at any file
// operation inside Compact must never lose the acknowledged puts that
// preceded it. Before the directory-sync fix, the WAL could be reset
// while the snapshot rename was still volatile, forgetting every
// record since the previous snapshot.
func TestCompactionRenameDurability(t *testing.T) {
	const keys = 5
	preOps := func() (int, int) {
		faulty := faultfs.NewFaulty(faultfs.NewMemFS(), nil)
		db, err := Open(Options{Dir: "/db", FS: faulty})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < keys; i++ {
			if err := db.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		before := faulty.Ops()
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		return before, faulty.Ops()
	}
	before, after := preOps()

	for n := before; n < after; n++ {
		mem := faultfs.NewMemFS()
		faulty := faultfs.NewFaulty(mem, faultfs.CrashAt(n))
		db, err := Open(Options{Dir: "/db", FS: faulty})
		if err != nil {
			t.Fatalf("failpoint %d: open: %v", n, err)
		}
		for i := 0; i < keys; i++ {
			if err := db.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				t.Fatalf("failpoint %d: put: %v", n, err)
			}
		}
		db.Compact() //nolint:errcheck // the compaction is the crash point
		mem.Crash()

		db2, err := Open(Options{Dir: "/db", FS: mem})
		if err != nil {
			t.Fatalf("failpoint %d: reopen: %v", n, err)
		}
		for i := 0; i < keys; i++ {
			if _, ok := db2.Get(fmt.Sprintf("k%d", i)); !ok {
				t.Fatalf("failpoint %d: acknowledged key k%d lost across compaction crash", n, i)
			}
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("failpoint %d: close: %v", n, err)
		}
	}
}

// TestFailedCompactionLeavesCleanErrors pins the wal-handle fix: when
// the WAL cannot be reopened after a compaction, later mutations (and
// Probe) must fail with a clear error instead of writing into a dead
// handle, and the error must surface the root cause.
func TestFailedCompactionLeavesCleanErrors(t *testing.T) {
	mem := faultfs.NewMemFS()
	arm := false
	inj := faultfs.InjectorFunc(func(op faultfs.FaultOp) *faultfs.Fault {
		if arm && op.Op == faultfs.OpOpen && strings.HasSuffix(op.Path, walName) {
			return &faultfs.Fault{Err: fmt.Errorf("open %s: %w", op.Path, syscall.ENOSPC)}
		}
		return nil
	})
	db, err := Open(Options{Dir: "/db", FS: faultfs.NewFaulty(mem, inj)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	arm = true
	if err := db.Compact(); err == nil {
		t.Fatal("compaction should fail when the wal cannot be reopened")
	}
	if err := db.Put("b", []byte("2")); err == nil {
		t.Fatal("put after failed compaction should error cleanly")
	} else if !strings.Contains(err.Error(), "wal unavailable") {
		t.Fatalf("unhelpful error after failed compaction: %v", err)
	}
	if err := db.Probe(); err == nil {
		t.Fatal("probe after failed compaction should error")
	}
	// Recovery: the next successful compaction re-establishes the WAL.
	arm = false
	if err := db.Compact(); err != nil {
		t.Fatalf("healing compaction: %v", err)
	}
	if err := db.Put("b", []byte("2")); err != nil {
		t.Fatalf("put after healing compaction: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornAppendRollback pins the tail-rollback fix: a short write
// (ENOSPC mid-record) must not leave torn bytes at the log tail. If it
// did, appends acknowledged after the disk recovered would land beyond
// the garbage, and the next replay — which truncates at the first bad
// record — would silently discard them.
func TestTornAppendRollback(t *testing.T) {
	mem := faultfs.NewMemFS()
	tearNext := false
	inj := faultfs.InjectorFunc(func(op faultfs.FaultOp) *faultfs.Fault {
		if tearNext && op.Op == faultfs.OpWrite && strings.HasSuffix(op.Path, walName) {
			tearNext = false
			return &faultfs.Fault{Err: syscall.ENOSPC, Partial: op.Size / 2}
		}
		return nil
	})
	db, err := Open(Options{Dir: "/db", FS: faultfs.NewFaulty(mem, inj)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	tearNext = true
	if err := db.Put("torn", []byte("lost-to-enospc")); err == nil {
		t.Fatal("put should fail on the injected short write")
	}
	// Disk recovered: this write is acknowledged and must survive.
	if err := db.Put("b", []byte("2")); err != nil {
		t.Fatalf("put after disk recovery: %v", err)
	}
	mem.Crash()

	db2, err := Open(Options{Dir: "/db", FS: mem})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close() //nolint:errcheck
	if _, ok := db2.Get("a"); !ok {
		t.Fatal("pre-tear acknowledged key lost")
	}
	if v, ok := db2.Get("b"); !ok || string(v) != "2" {
		t.Fatal("acknowledged key written after the torn append was lost: the tail was not rolled back")
	}
	if _, ok := db2.Get("torn"); ok {
		t.Fatal("unacknowledged torn write resurrected")
	}
}

// TestTornAppendRollbackTruncateFails covers the double fault: the
// append tears AND the rollback truncate fails. The log must be marked
// unusable (further mutations error cleanly) and then heal through the
// commitWAL/Probe repair path once the disk recovers, with no
// acknowledged write lost.
func TestTornAppendRollbackTruncateFails(t *testing.T) {
	mem := faultfs.NewMemFS()
	diskDead := false
	inj := faultfs.InjectorFunc(func(op faultfs.FaultOp) *faultfs.Fault {
		if !diskDead || !strings.HasSuffix(op.Path, walName) {
			return nil
		}
		switch op.Op {
		case faultfs.OpWrite:
			return &faultfs.Fault{Err: syscall.ENOSPC, Partial: op.Size / 3}
		case faultfs.OpSync, faultfs.OpTruncate, faultfs.OpOpen:
			return &faultfs.Fault{Err: syscall.ENOSPC}
		}
		return nil
	})
	db, err := Open(Options{Dir: "/db", FS: faultfs.NewFaulty(mem, inj)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	diskDead = true
	if err := db.Put("torn", []byte("x")); err == nil {
		t.Fatal("put should fail while the disk is dead")
	}
	if err := db.Probe(); err == nil {
		t.Fatal("probe should fail while the disk is dead: the torn tail cannot be repaired yet")
	}
	diskDead = false
	// The repair path truncates the torn tail before this append is
	// acknowledged.
	if err := db.Probe(); err != nil {
		t.Fatalf("probe after disk recovery: %v", err)
	}
	if err := db.Put("b", []byte("2")); err != nil {
		t.Fatalf("put after disk recovery: %v", err)
	}
	mem.Crash()

	db2, err := Open(Options{Dir: "/db", FS: mem})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close() //nolint:errcheck
	if _, ok := db2.Get("a"); !ok {
		t.Fatal("pre-fault acknowledged key lost")
	}
	if _, ok := db2.Get("b"); !ok {
		t.Fatal("post-repair acknowledged key lost")
	}
	if _, ok := db2.Get("torn"); ok {
		t.Fatal("unacknowledged torn write resurrected")
	}
}

// TestProbeHealsAfterFailedCompaction pins the degraded-mode auto-heal:
// a compaction that fails after installing the snapshot leaves the
// store without a WAL handle, and Probe alone — no compaction, no
// restart — must re-establish it once the disk recovers.
func TestProbeHealsAfterFailedCompaction(t *testing.T) {
	mem := faultfs.NewMemFS()
	arm := false
	inj := faultfs.InjectorFunc(func(op faultfs.FaultOp) *faultfs.Fault {
		if arm && op.Op == faultfs.OpOpen && strings.HasSuffix(op.Path, walName) {
			return &faultfs.Fault{Err: syscall.ENOSPC}
		}
		return nil
	})
	db, err := Open(Options{Dir: "/db", FS: faultfs.NewFaulty(mem, inj)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	arm = true
	if err := db.Compact(); err == nil {
		t.Fatal("compaction should fail when the wal cannot be reopened")
	}
	if err := db.Probe(); err == nil {
		t.Fatal("probe should still fail while the disk is dead")
	}
	arm = false
	if err := db.Probe(); err != nil {
		t.Fatalf("probe should repair the wal once the disk recovers: %v", err)
	}
	if err := db.Put("b", []byte("2")); err != nil {
		t.Fatalf("put after probe-driven repair: %v", err)
	}
	mem.Crash()

	db2, err := Open(Options{Dir: "/db", FS: mem})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close() //nolint:errcheck
	for _, k := range []string{"a", "b"} {
		if _, ok := db2.Get(k); !ok {
			t.Fatalf("acknowledged key %s lost across probe-driven repair", k)
		}
	}
}

// TestProbeRecordsAreInvisible checks that Probe's WAL records replay
// as no-ops and never surface as keys.
func TestProbeRecordsAreInvisible(t *testing.T) {
	mem := faultfs.NewMemFS()
	db, err := Open(Options{Dir: "/db", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := db.Probe(); err != nil {
			t.Fatalf("probe: %v", err)
		}
	}
	if err := db.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	// Crash without closing: probes and puts replay from the WAL.
	mem.Crash()
	db2, err := Open(Options{Dir: "/db", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close() //nolint:errcheck
	if got := len(db2.Keys("")); got != 2 {
		t.Fatalf("probe records leaked into the keyspace: %d keys: %v", got, db2.Keys(""))
	}
}
