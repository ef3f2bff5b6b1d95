package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/imcf/imcf/internal/faultfs"
	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/metrics"
)

// The flight recorder dumps a correlated diagnostic bundle the moment
// something goes wrong — degraded-mode entry, an SLO page transition,
// SIGQUIT — so the operator triages from evidence captured at the
// fault, not from whatever the rings still hold an hour later. A
// bundle is one directory, diagnostics/<ts>-<reason>/, holding the
// last log records, spans and journal events filtered to the
// triggering tenant/trace, a metrics snapshot, and a goroutine dump;
// cmd/imcf-debug reads it back.
//
// Bundles are written through the faultfs.FS seam so the
// kill-at-every-failpoint harness can prove crash safety: every
// artifact file is written and fsynced first, and meta.json — the
// completeness marker — is written last via create-tmp/rename. A crash
// anywhere in between leaves a directory without a valid meta.json,
// which readers (and imcf-debug) classify as torn and skip; a torn
// bundle can never corrupt the store (it lives in its own tree) or
// block boot (nothing replays it).

// MetaName is the bundle completeness marker: a bundle directory is
// well-formed iff it holds a parseable MetaName file, written last.
const MetaName = "meta.json"

// maxRecords bounds how many log records and journal events a bundle
// section retains: the newest ones.
const maxRecords = 1000

// minInterval rate-limits bundles per (reason, tenant), so a flapping
// tenant cannot fill the disk.
const minInterval = time.Minute

// ErrSuppressed reports a Trigger dropped by the per-(reason, tenant)
// rate limit.
var ErrSuppressed = errors.New("obs: flight-recorder trigger suppressed by rate limit")

// Meta is the bundle manifest, written last as the completeness marker.
type Meta struct {
	Reason string         `json:"reason"`
	Tenant string         `json:"tenant,omitempty"`
	Trace  string         `json:"trace,omitempty"`
	Time   time.Time      `json:"time"`
	Files  []string       `json:"files"`
	Counts map[string]int `json:"counts"`
}

// Sources are the recorder's read-only taps into the live process. Any
// nil source simply omits its section from the bundle.
type Sources struct {
	// Logs returns the retained log records filtered to the triggering
	// tenant/trace (either may be empty — the source decides the
	// fallback), oldest first.
	Logs func(tenant, trace string) []Record
	// Spans returns the retained spans; trace, when non-empty, selects
	// one causal trace.
	Spans func(trace string) []metrics.SpanRecord
	// Journal returns the planner decision events filtered to the
	// triggering tenant/trace, oldest first.
	Journal func(tenant, trace string) []journal.Event
	// Metrics returns a text-exposition snapshot of the registry.
	Metrics func() []byte
	// Goroutines returns a stack dump of every goroutine; nil uses
	// runtime.Stack.
	Goroutines func() []byte
}

// RecorderOptions configure a flight recorder.
type RecorderOptions struct {
	// Dir is the diagnostics root; bundles land in Dir/<ts>-<reason>/.
	Dir string
	// FS is the file layer (tests inject faultfs fakes); nil uses the
	// real filesystem.
	FS faultfs.FS
	// Now supplies timestamps for bundle names, metadata and rate
	// limiting — the daemon passes its clock so simulated time flows
	// through. Required.
	Now func() time.Time
	// Sources tap the live process.
	Sources Sources
}

// Recorder writes diagnostic bundles. It is safe for concurrent use;
// concurrent triggers serialize.
type Recorder struct {
	dir string
	fs  faultfs.FS
	now func() time.Time
	src Sources

	mu   sync.Mutex
	last map[string]time.Time
	seq  int
}

// NewRecorder builds a recorder. Dir and Now are required.
func NewRecorder(opts RecorderOptions) (*Recorder, error) {
	if opts.Dir == "" {
		return nil, errors.New("obs: recorder needs a diagnostics directory")
	}
	if opts.Now == nil {
		return nil, errors.New("obs: recorder needs a clock (Options.Now)")
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	return &Recorder{
		dir:  opts.Dir,
		fs:   fsys,
		now:  opts.Now,
		src:  opts.Sources,
		last: make(map[string]time.Time),
	}, nil
}

// Dir returns the diagnostics root.
func (r *Recorder) Dir() string { return r.dir }

// sanitizeReason restricts bundle-name reasons to a path-safe charset;
// anything else becomes '-'.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "unknown"
	}
	b := []byte(reason)
	for i, c := range b {
		ok := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '-' || c == '_'
		if !ok {
			b[i] = '-'
		}
	}
	return string(b)
}

// Trigger dumps one bundle for the given reason, filtered to the
// triggering tenant and/or trace (either may be empty). It returns the
// bundle directory, or ErrSuppressed when the per-(reason, tenant)
// rate limit drops the trigger. Trigger never panics the serving path:
// every failure is an error return plus a counter.
func (r *Recorder) Trigger(reason, tenant, trace string) (string, error) {
	reason = sanitizeReason(reason)
	now := r.now()

	r.mu.Lock()
	key := reason + "\x00" + tenant
	if last, ok := r.last[key]; ok && now.Sub(last) < minInterval {
		r.mu.Unlock()
		bundleSuppressed.Inc()
		return "", ErrSuppressed
	}
	r.last[key] = now
	r.seq++
	seq := r.seq
	r.mu.Unlock()

	name := fmt.Sprintf("%s-%04d-%s", now.UTC().Format("20060102T150405"), seq, reason)
	dir := filepath.Join(r.dir, name)
	if err := r.write(dir, reason, tenant, trace, now); err != nil {
		bundleErrors.Inc()
		return "", fmt.Errorf("obs: flight recorder: %w", err)
	}
	bundles.Inc()
	return dir, nil
}

// write assembles the bundle at dir. Artifact files first (each synced),
// then the directory, then meta.json atomically — the completeness
// marker readers trust.
func (r *Recorder) write(dir, reason, tenant, trace string, now time.Time) error {
	if err := r.fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta := Meta{
		Reason: reason,
		Tenant: tenant,
		Trace:  trace,
		Time:   now.UTC(),
		Counts: make(map[string]int),
	}

	writeSection := func(name string, data []byte, count int) error {
		if err := r.writeFile(filepath.Join(dir, name), data); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		meta.Files = append(meta.Files, name)
		meta.Counts[name] = count
		return nil
	}

	if r.src.Logs != nil {
		recs := r.src.Logs(tenant, trace)
		if len(recs) > maxRecords {
			recs = recs[len(recs)-maxRecords:]
		}
		data, count, err := marshalLines(recs)
		if err != nil {
			return err
		}
		if err := writeSection("logs.jsonl", data, count); err != nil {
			return err
		}
	}
	if r.src.Spans != nil {
		spans := r.src.Spans(trace)
		data, err := json.MarshalIndent(spans, "", "  ")
		if err != nil {
			return err
		}
		if err := writeSection("spans.json", append(data, '\n'), len(spans)); err != nil {
			return err
		}
	}
	if r.src.Journal != nil {
		evs := r.src.Journal(tenant, trace)
		if len(evs) > maxRecords {
			evs = evs[len(evs)-maxRecords:]
		}
		data, count, err := marshalLines(evs)
		if err != nil {
			return err
		}
		if err := writeSection("journal.jsonl", data, count); err != nil {
			return err
		}
	}
	if r.src.Metrics != nil {
		data := r.src.Metrics()
		if err := writeSection("metrics.prom", data, 0); err != nil {
			return err
		}
	}
	gor := r.src.Goroutines
	if gor == nil {
		gor = goroutineDump
	}
	if err := writeSection("goroutines.txt", gor(), runtime.NumGoroutine()); err != nil {
		return err
	}

	// The artifact names are durable before the marker that vouches for
	// them.
	if err := r.fs.SyncDir(dir); err != nil {
		return err
	}

	metaBytes, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, MetaName+".tmp")
	if err := r.writeFile(tmp, append(metaBytes, '\n')); err != nil {
		return fmt.Errorf("%s: %w", MetaName, err)
	}
	if err := r.fs.Rename(tmp, filepath.Join(dir, MetaName)); err != nil {
		return err
	}
	if err := r.fs.SyncDir(dir); err != nil {
		return err
	}
	return r.fs.SyncDir(r.dir)
}

// writeFile creates path, writes data, fsyncs and closes — every step
// through the seam, every error surfaced.
func (r *Recorder) writeFile(path string, data []byte) error {
	f, err := r.fs.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	return f.Close()
}

// marshalLines renders a slice as JSON lines.
func marshalLines[T any](items []T) ([]byte, int, error) {
	var out []byte
	for _, it := range items {
		b, err := json.Marshal(it)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, b...)
		out = append(out, '\n')
	}
	return out, len(items), nil
}

// goroutineDump captures every goroutine's stack.
func goroutineDump() []byte {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return buf[:n]
}

// ReadMeta loads and validates a bundle's completeness marker from the
// real filesystem — the reader half (cmd/imcf-debug, tests). It reports
// an error for torn bundles (missing or unparseable meta.json).
func ReadMeta(bundleDir string) (Meta, error) {
	b, err := os.ReadFile(filepath.Join(bundleDir, MetaName))
	if err != nil {
		return Meta{}, fmt.Errorf("obs: torn or missing bundle marker: %w", err)
	}
	var m Meta
	if err := json.Unmarshal(b, &m); err != nil {
		return Meta{}, fmt.Errorf("obs: corrupt bundle marker: %w", err)
	}
	if m.Reason == "" {
		return Meta{}, errors.New("obs: bundle marker missing reason")
	}
	return m, nil
}
