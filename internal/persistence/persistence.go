// Package persistence implements the measurement-recording service of
// the IMCF GUI: "record OpenHAB item measurements/values on local
// storage and present those on a table". Item readings stream into
// Gorilla-compressed trace segments on disk (one directory per
// controller), and time-range and downsampling queries read them back —
// the same role openHAB's persistence layer plays for the paper's
// Rules Table view.
//
// Layout: each item owns a set of segment files
//
//	<dir>/<escaped-item>.<startUnix>.imt
//
// A segment is an append-ordered trace file; a new segment starts per
// service session. Queries merge all of an item's segments.
package persistence

import (
	"errors"
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/imcf/imcf/internal/faultfs"
	"github.com/imcf/imcf/internal/metrics"
	"github.com/imcf/imcf/internal/trace"
)

// Recording counters.
var (
	recordsWritten = metrics.NewCounter("imcf_persistence_records_total",
		"Item readings appended to trace segments.")
	flushes = metrics.NewCounter("imcf_persistence_flushes_total",
		"Explicit flushes of buffered readings to disk.")
	flushErrors = metrics.NewCounter("imcf_persistence_flush_errors_total",
		"Flushes that failed for at least one item segment.")
)

const segmentExt = ".imt"

// Service records and queries item readings. It is safe for concurrent
// use.
type Service struct {
	dir string

	mu      sync.Mutex
	writers map[string]*trace.Writer
	kinds   map[string]trace.Kind
	closed  bool
}

// Open prepares a persistence directory, creating it if needed, on the
// real filesystem.
func Open(dir string) (*Service, error) {
	return OpenFS(dir, nil)
}

// OpenFS is Open with the directory's creation routed through the
// given faultfs.FS, so crash suites can inject faults into it. A nil
// fsys uses the real filesystem.
// Segment content I/O goes through internal/trace, which owns its own
// file handling.
func OpenFS(dir string, fsys faultfs.FS) (*Service, error) {
	if dir == "" {
		return nil, errors.New("persistence: dir must be set")
	}
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persistence: create dir: %w", err)
	}
	return &Service{
		dir:     dir,
		writers: make(map[string]*trace.Writer),
		kinds:   make(map[string]trace.Kind),
	}, nil
}

// Record appends one reading for an item. The first Record for an item
// in this session opens a fresh segment; the kind must stay consistent
// within the session.
func (s *Service) Record(item string, kind trace.Kind, rec trace.Record) error {
	if item == "" {
		return errors.New("persistence: empty item")
	}
	if !kind.Valid() {
		return fmt.Errorf("persistence: invalid kind %v", kind)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("persistence: service is closed")
	}
	w, ok := s.writers[item]
	if !ok {
		path := filepath.Join(s.dir, fmt.Sprintf("%s.%d%s", escapeItem(item), rec.Time.Unix(), segmentExt))
		var err error
		w, err = trace.CreateFile(path, kind, 0)
		if err != nil {
			return err
		}
		s.writers[item] = w
		s.kinds[item] = kind
	}
	if s.kinds[item] != kind {
		return fmt.Errorf("persistence: item %q is %v, got %v", item, s.kinds[item], kind)
	}
	if err := w.Append(rec); err != nil {
		return err
	}
	recordsWritten.Inc()
	return nil
}

// Flush forces buffered readings of every item to disk.
func (s *Service) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	flushes.Inc()
	var firstErr error
	for item, w := range s.writers {
		if err := w.Flush(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("persistence: flush %q: %w", item, err)
		}
	}
	if firstErr != nil {
		flushErrors.Inc()
	}
	return firstErr
}

// Close flushes and closes all segments. The service is unusable after.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for item, w := range s.writers {
		if err := w.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("persistence: close %q: %w", item, err)
		}
	}
	s.writers = nil
	return firstErr
}

// Items lists every item with at least one on-disk segment, sorted.
func (s *Service) Items() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persistence: list: %w", err)
	}
	seen := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), segmentExt) {
			continue
		}
		item, ok := itemOfSegment(e.Name())
		if ok {
			seen[item] = true
		}
	}
	out := make([]string, 0, len(seen))
	for item := range seen {
		out = append(out, item)
	}
	sort.Strings(out)
	return out, nil
}

// Query returns an item's readings in [from, to), merged across
// segments and sorted by time. Buffered readings are flushed first.
func (s *Service) Query(item string, from, to time.Time) ([]trace.Record, error) {
	if err := s.Flush(); err != nil {
		return nil, err
	}
	segments, err := s.segmentsOf(item)
	if err != nil {
		return nil, err
	}
	if len(segments) == 0 {
		return nil, fmt.Errorf("persistence: unknown item %q", item)
	}
	var out []trace.Record
	for _, seg := range segments {
		r, err := trace.OpenFile(seg)
		if err != nil {
			return nil, err
		}
		r.Restrict(from, to)
		recs, err := r.ReadAll()
		r.Close() //nolint:errcheck // read-only
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	trace.SortRecords(out)
	return out, nil
}

// Bucket is one downsampled interval of an item's readings.
type Bucket struct {
	Start time.Time `json:"start"`
	Count int       `json:"count"`
	Min   float64   `json:"min"`
	Max   float64   `json:"max"`
	Mean  float64   `json:"mean"`
}

// Aggregate downsamples an item's readings into fixed buckets. Empty
// buckets are omitted.
func (s *Service) Aggregate(item string, from, to time.Time, bucket time.Duration) ([]Bucket, error) {
	if bucket <= 0 {
		return nil, fmt.Errorf("persistence: bucket %v must be positive", bucket)
	}
	recs, err := s.Query(item, from, to)
	if err != nil {
		return nil, err
	}
	var out []Bucket
	var cur *Bucket
	var curEnd time.Time
	var sum float64
	flush := func() {
		if cur != nil {
			cur.Mean = sum / float64(cur.Count)
			out = append(out, *cur)
			cur, sum = nil, 0
		}
	}
	for _, r := range recs {
		if cur == nil || !r.Time.Before(curEnd) {
			flush()
			start := r.Time.Truncate(bucket)
			curEnd = start.Add(bucket)
			cur = &Bucket{Start: start, Min: math.Inf(1), Max: math.Inf(-1)}
		}
		cur.Count++
		sum += r.Value
		if r.Value < cur.Min {
			cur.Min = r.Value
		}
		if r.Value > cur.Max {
			cur.Max = r.Value
		}
	}
	flush()
	return out, nil
}

// segmentsOf lists an item's segment paths sorted by start time.
func (s *Service) segmentsOf(item string) ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persistence: list: %w", err)
	}
	prefix := escapeItem(item) + "."
	var out []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), segmentExt) || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		// Guard against another item whose escaped name extends this
		// prefix: the remainder must be purely the start timestamp.
		rest := strings.TrimSuffix(strings.TrimPrefix(e.Name(), prefix), segmentExt)
		if !isDigits(rest) {
			continue
		}
		out = append(out, filepath.Join(s.dir, e.Name()))
	}
	sort.Strings(out)
	return out, nil
}

// escapeItem encodes an item ID (which may contain slashes) into a safe
// file-name stem.
func escapeItem(item string) string {
	return url.PathEscape(item)
}

// itemOfSegment recovers the item ID from a segment file name.
func itemOfSegment(name string) (string, bool) {
	stem := strings.TrimSuffix(name, segmentExt)
	dot := strings.LastIndexByte(stem, '.')
	if dot < 0 || !isDigits(stem[dot+1:]) {
		return "", false
	}
	item, err := url.PathUnescape(stem[:dot])
	if err != nil {
		return "", false
	}
	return item, true
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}
