package obs

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// The package-level default logger is what the daemon and serving
// packages use; exercise its accessors end to end.
func TestDefaultLoggerPlumbing(t *testing.T) {
	h := DefaultHandler()
	oldLevel := h.Level()
	defer func() {
		SetLevel(oldLevel)
		h.SetOutput(nil)
	}()

	var buf bytes.Buffer
	h.SetOutput(&buf)
	SetLevel(slog.LevelDebug)
	if !Enabled() {
		t.Fatal("Enabled() false at rest")
	}
	L().LogAttrs(context.Background(), slog.LevelDebug, "plumbing", Error(errors.New("boom")))
	if !strings.Contains(buf.String(), `"boom"`) {
		t.Fatalf("default output missed the error attr: %q", buf.String())
	}
	if Error(nil).Value.String() != "" {
		t.Fatalf("Error(nil) = %v, want empty", Error(nil))
	}
}

func TestHandlerWithAttrsAndGroup(t *testing.T) {
	_, h := testLogger(8)
	derived := slog.New(h.WithAttrs([]slog.Attr{slog.String("site", "edge")}).
		WithGroup("ignored"))
	derived.Info("tagged")
	rec := h.Ring().Query("", "", slog.LevelDebug, 0)[0]
	if rec.Attrs["site"] != "edge" {
		t.Fatalf("derived handler lost bound attrs: %+v", rec)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateOK: "ok", StateWarn: "warn", StatePage: "page", State(9): "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

// Every engine resolves real registry children; distinct tenant labels
// keep this test's series isolated.
func TestSLOPublishesGauges(t *testing.T) {
	s := NewSLO(Config{})
	now := time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC)
	s.Observe("covg1", now, 0.002, false)
	s.Evaluate(now)
	if got := s.State("covg1"); got != StateOK {
		t.Fatalf("state = %v, want ok", got)
	}
}

func TestNewRecorderValidation(t *testing.T) {
	if _, err := NewRecorder(RecorderOptions{Now: func() time.Time { return time.Time{} }}); err == nil {
		t.Fatal("NewRecorder accepted an empty Dir")
	}
	if _, err := NewRecorder(RecorderOptions{Dir: "x"}); err == nil {
		t.Fatal("NewRecorder accepted a nil clock")
	}
}

// A nil Goroutines source falls back to the real runtime.Stack dump.
func TestRecorderDefaultGoroutineDump(t *testing.T) {
	clock := newTestClock()
	src := testSources()
	src.Goroutines = nil
	r, err := NewRecorder(RecorderOptions{Dir: t.TempDir(), Now: clock.now, Sources: src})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Dir(), r.dir; got != want {
		t.Fatalf("Dir() = %q, want %q", got, want)
	}
	bundle, err := r.Trigger("sigquit", "", "")
	if err != nil {
		t.Fatal(err)
	}
	meta, err := ReadMeta(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Counts["goroutines.txt"] < 1 {
		t.Fatalf("goroutine count = %d, want >= 1", meta.Counts["goroutines.txt"])
	}
}
