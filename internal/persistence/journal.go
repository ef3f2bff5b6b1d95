package persistence

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"

	"github.com/imcf/imcf/internal/faultfs"
	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/metrics"
	"github.com/imcf/imcf/internal/obs"
)

// Journal durability counters.
var (
	journalRecords = metrics.NewCounter("imcf_persistence_journal_records_total",
		"Decision-provenance events appended to the on-disk journal log.")
	journalSyncs = metrics.NewCounter("imcf_persistence_journal_syncs_total",
		"fsyncs of the journal log, one per appended event.")
	journalSkippedLines = metrics.NewCounter("imcf_persistence_journal_skipped_lines_total",
		"Torn or corrupt journal lines skipped during replay.")
)

// JournalFile is the decision journal's file name inside the
// persistence directory.
const JournalFile = "decisions.jnl"

// JournalLog is the durable backing of the decision journal: one JSON
// event per line, written and fsynced before AppendEvent returns, so a
// crash loses no acknowledged event. It implements journal.Sink; the
// daemon replays it on boot (Replay → journal.Preload) and installs it
// as the live journal's sink, making "why was rule R dropped"
// answerable across restarts. Safe for concurrent use.
type JournalLog struct {
	mu   sync.Mutex
	path string
	fs   faultfs.FS
	f    faultfs.File
	enc  *json.Encoder // writes each event to f in one Write
}

// OpenJournal opens (creating if needed) the journal log in dir. fsys
// is the file layer (tests inject faultfs fakes); nil uses the real
// filesystem.
func OpenJournal(dir string, fsys faultfs.FS) (*JournalLog, error) {
	if dir == "" {
		return nil, errors.New("persistence: journal dir must be set")
	}
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persistence: create journal dir: %w", err)
	}
	return OpenJournalFile(filepath.Join(dir, JournalFile), fsys)
}

// OpenJournalFile opens (creating if needed) a journal log at an
// explicit path — cmd/imcf-explain uses it to read arbitrary dumps.
// fsys nil uses the real filesystem.
func OpenJournalFile(path string, fsys faultfs.FS) (*JournalLog, error) {
	if path == "" {
		return nil, errors.New("persistence: journal path must be set")
	}
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persistence: open journal: %w", err)
	}
	// A freshly created log is only a directory entry until the parent
	// is synced; without this a crash right after boot could drop the
	// whole file rather than just unsynced events.
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		f.Close() //nolint:errcheck // the syncdir error is already being returned
		return nil, fmt.Errorf("persistence: sync journal dir: %w", err)
	}
	return &JournalLog{path: path, fs: fsys, f: f, enc: json.NewEncoder(f)}, nil
}

// Path returns the log's file path.
func (l *JournalLog) Path() string { return l.path }

// AppendEvent appends one event (implements journal.Sink) and fsyncs
// it.
func (l *JournalLog) AppendEvent(ev journal.Event) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("persistence: journal log is closed")
	}
	if err := l.enc.Encode(ev); err != nil {
		return fmt.Errorf("persistence: write journal event: %w", err)
	}
	journalRecords.Inc()
	//imcf:allow lockdiscipline fsync under l.mu keeps it ordered after exactly the written record; appenders queueing behind it is the durability contract
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("persistence: sync journal: %w", err)
	}
	journalSyncs.Inc()
	return nil
}

// Replay reads the log from the start, invoking fn for each decoded
// event, and returns the number of events replayed. Torn or corrupt
// lines — a tail cut mid-append, or an interior record mangled by a
// torn page — are skipped and counted in
// imcf_persistence_journal_skipped_lines_total rather than aborting:
// the journal is provenance, so salvaging every readable event beats
// refusing to boot.
func (l *JournalLog) Replay(fn func(journal.Event)) (int, error) {
	data, err := l.fs.ReadFile(l.path)
	if err != nil {
		return 0, fmt.Errorf("persistence: read journal: %w", err)
	}
	n, skipped := 0, 0
	for len(data) > 0 {
		line := data
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// No trailing newline: a torn final append. Skip it.
			if len(bytes.TrimSpace(line)) != 0 {
				journalSkippedLines.Inc()
				skipped++
			}
			break
		}
		line, data = data[:nl], data[nl+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev journal.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			journalSkippedLines.Inc()
			skipped++
			continue
		}
		fn(ev)
		n++
	}
	if skipped > 0 {
		obs.L().LogAttrs(context.Background(), slog.LevelWarn,
			"journal replay skipped torn or corrupt lines",
			slog.String("path", l.path),
			slog.Int("replayed", n),
			slog.Int("skipped", skipped))
	}
	return n, nil
}

// Close closes the log; every appended event is already on disk. The
// log is unusable after.
func (l *JournalLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	if err != nil {
		return fmt.Errorf("persistence: close journal: %w", err)
	}
	return nil
}
