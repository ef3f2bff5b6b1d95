package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/faultfs"
	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/metrics"
)

// testSources returns deterministic taps so bundle contents (and the
// crash harness's failpoint schedule) replay exactly.
func testSources() Sources {
	return Sources{
		Logs: func(tenant, trace string) []Record {
			return []Record{
				{Level: "INFO", Msg: "first", Tenant: tenant, Trace: trace},
				{Level: "ERROR", Msg: "second", Tenant: tenant, Trace: trace},
			}
		},
		Spans: func(trace string) []metrics.SpanRecord {
			return []metrics.SpanRecord{{Name: "ep.plan", Trace: trace}}
		},
		Journal: func(tenant, trace string) []journal.Event {
			return []journal.Event{{Seq: 1, Tenant: tenant, Trace: trace, Rule: "r1"}}
		},
		Metrics:    func() []byte { return []byte("imcf_up 1\n") },
		Goroutines: func() []byte { return []byte("goroutine 1 [running]:\nmain.main()\n") },
	}
}

// testClock is a hand-advanced clock for the recorder's Now option.
type testClock struct{ t time.Time }

func (c *testClock) now() time.Time { return c.t }

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func TestRecorderBundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	r, err := NewRecorder(RecorderOptions{Dir: dir, Now: clock.now, Sources: testSources()})
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := r.Trigger("degraded", "h1", "trace-1")
	if err != nil {
		t.Fatal(err)
	}

	meta, err := ReadMeta(bundle)
	if err != nil {
		t.Fatalf("bundle is not well-formed: %v", err)
	}
	if meta.Reason != "degraded" || meta.Tenant != "h1" || meta.Trace != "trace-1" {
		t.Fatalf("meta = %+v", meta)
	}
	wantFiles := []string{"logs.jsonl", "spans.json", "journal.jsonl", "metrics.prom", "goroutines.txt"}
	if len(meta.Files) != len(wantFiles) {
		t.Fatalf("files = %v, want %v", meta.Files, wantFiles)
	}
	for i, f := range wantFiles {
		if meta.Files[i] != f {
			t.Fatalf("files = %v, want %v", meta.Files, wantFiles)
		}
	}
	if meta.Counts["logs.jsonl"] != 2 || meta.Counts["journal.jsonl"] != 1 {
		t.Fatalf("counts = %v", meta.Counts)
	}

	// The log section is JSONL of Records carrying the correlation IDs.
	data, err := faultfs.OS{}.ReadFile(filepath.Join(bundle, "logs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("logs.jsonl has %d lines, want 2", len(lines))
	}
	var rec Record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Tenant != "h1" || rec.Trace != "trace-1" {
		t.Fatalf("log record lost correlation: %+v", rec)
	}
}

func TestRecorderRateLimit(t *testing.T) {
	clock := newTestClock()
	r, err := NewRecorder(RecorderOptions{Dir: t.TempDir(), Now: clock.now, Sources: testSources()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Trigger("degraded", "h1", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Trigger("degraded", "h1", ""); !errors.Is(err, ErrSuppressed) {
		t.Fatalf("second trigger within the interval: err = %v, want ErrSuppressed", err)
	}
	// A different reason or tenant is its own bucket.
	if _, err := r.Trigger("sigquit", "h1", ""); err != nil {
		t.Fatalf("distinct reason suppressed: %v", err)
	}
	if _, err := r.Trigger("degraded", "h2", ""); err != nil {
		t.Fatalf("distinct tenant suppressed: %v", err)
	}
	// And the interval expiring reopens the bucket.
	clock.t = clock.t.Add(2 * time.Minute)
	if _, err := r.Trigger("degraded", "h1", ""); err != nil {
		t.Fatalf("trigger after interval: %v", err)
	}
}

func TestRecorderKeepsNewestRecords(t *testing.T) {
	clock := newTestClock()
	src := testSources()
	src.Logs = func(tenant, trace string) []Record {
		recs := make([]Record, maxRecords+5)
		for i := range recs {
			recs[i] = Record{Msg: fmt.Sprintf("m%04d", i)}
		}
		return recs
	}
	r, err := NewRecorder(RecorderOptions{Dir: t.TempDir(), Now: clock.now, Sources: src})
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := r.Trigger("sigquit", "", "")
	if err != nil {
		t.Fatal(err)
	}
	data, err := faultfs.OS{}.ReadFile(filepath.Join(bundle, "logs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != maxRecords {
		t.Fatalf("kept %d records, want %d", len(lines), maxRecords)
	}
	if !strings.Contains(lines[0], `"m0005"`) || !strings.Contains(lines[maxRecords-1], fmt.Sprintf(`"m%04d"`, maxRecords+4)) {
		t.Fatalf("kept records %q … %q, want the newest %d", lines[0], lines[maxRecords-1], maxRecords)
	}
}

func TestReadMetaRejectsTorn(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadMeta(dir); err == nil {
		t.Fatal("ReadMeta accepted a directory with no marker")
	}
	path := filepath.Join(dir, MetaName)
	if err := (&Recorder{fs: faultfs.OS{}}).writeFile(path, []byte(`{"reason": "x`)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMeta(dir); err == nil {
		t.Fatal("ReadMeta accepted a truncated marker")
	}
}

// metaFromFS is ReadMeta against an injected filesystem — the crash
// harness reads the simulated disk, not the host's.
func metaFromFS(fsys faultfs.FS, bundleDir string) (Meta, error) {
	b, err := fsys.ReadFile(filepath.Join(bundleDir, MetaName))
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(b, &m); err != nil {
		return Meta{}, err
	}
	if m.Reason == "" {
		return Meta{}, errors.New("marker missing reason")
	}
	return m, nil
}

// recorderOn builds a recorder over fsys with deterministic sources.
func recorderOn(t *testing.T, fsys faultfs.FS) *Recorder {
	t.Helper()
	clock := newTestClock()
	r, err := NewRecorder(RecorderOptions{
		Dir: "diag", FS: fsys, Now: clock.now, Sources: testSources(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRecorderCrashEveryFailpoint kills the bundle write at every
// filesystem operation in turn and proves the crash-safety contract:
// after power loss, a bundle directory either carries a valid meta.json
// vouching for every listed artifact, or it is torn — recognizably
// incomplete, inert, and no obstacle to the next boot's recorder.
func TestRecorderCrashEveryFailpoint(t *testing.T) {
	// Pass 1: count the failpoints in a clean run.
	counter := faultfs.NewFaulty(faultfs.NewMemFS(), nil)
	if _, err := recorderOn(t, counter).Trigger("degraded", "h1", "trace-1"); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	total := counter.Ops()
	if total < 10 {
		t.Fatalf("suspiciously few failpoints (%d); is the recorder still going through the seam?", total)
	}

	for n := 0; n < total; n++ {
		mem := faultfs.NewMemFS()
		faulty := faultfs.NewFaulty(mem, faultfs.CrashAt(n))
		_, err := recorderOn(t, faulty).Trigger("degraded", "h1", "trace-1")
		if err == nil {
			t.Fatalf("failpoint %d: Trigger succeeded through a crash", n)
		}
		// Power loss: unsynced state is gone, torn tails survive.
		mem.CrashTearing(uint64(n) + 1)

		// Invariant: any bundle whose marker parses must be complete.
		for _, dir := range bundleDirs(mem) {
			meta, err := metaFromFS(mem, dir)
			if err != nil {
				continue // torn: recognized and skipped, exactly as designed
			}
			for _, f := range meta.Files {
				if _, err := mem.Size(filepath.Join(dir, f)); err != nil {
					t.Fatalf("failpoint %d: marker in %s vouches for missing %s", n, dir, f)
				}
			}
		}

		// Reboot: a fresh recorder on the survivor disk must work —
		// torn leftovers never block the next bundle.
		bundle, err := recorderOn(t, mem).Trigger("reboot", "h1", "")
		if err != nil {
			t.Fatalf("failpoint %d: post-crash trigger failed: %v", n, err)
		}
		if _, err := metaFromFS(mem, bundle); err != nil {
			t.Fatalf("failpoint %d: post-crash bundle torn: %v", n, err)
		}
	}
}

// bundleDirs lists the bundle directories present on a MemFS, derived
// from its file paths (MemFS has no directory listing).
func bundleDirs(mem *faultfs.MemFS) []string {
	seen := make(map[string]bool)
	var dirs []string
	for _, p := range mem.Paths() {
		dir := filepath.Dir(p)
		if filepath.Dir(dir) == "diag" && !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	return dirs
}

func TestSanitizeReason(t *testing.T) {
	for in, want := range map[string]string{
		"degraded":   "degraded",
		"":           "unknown",
		"a/b..c d":   "a-b--c-d",
		"slo-page_1": "slo-page_1",
	} {
		if got := sanitizeReason(in); got != want {
			t.Errorf("sanitizeReason(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRecorderTriggerNeverLogsRecursively guards against the recorder
// re-entering the obs layer under the ring lock: triggering from a log
// source that itself logs must not deadlock.
func TestRecorderTriggerNeverLogsRecursively(t *testing.T) {
	clock := newTestClock()
	src := testSources()
	src.Logs = func(tenant, trace string) []Record {
		L().LogAttrs(nil, slog.LevelDebug, "source self-log") //nolint:staticcheck // nil ctx exercises robustness
		return nil
	}
	r, err := NewRecorder(RecorderOptions{Dir: t.TempDir(), Now: clock.now, Sources: src})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := r.Trigger("degraded", "h1", ""); err != nil {
			t.Errorf("trigger: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Trigger deadlocked while a source logged")
	}
}
