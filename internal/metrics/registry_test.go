package metrics

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestPackageLevelShorthands exercises the Default-registry
// constructors and the package-level /metrics handler.
func TestPackageLevelShorthands(t *testing.T) {
	c := NewCounter("short_total", "c")
	if NewCounter("short_total", "again") != c {
		t.Fatal("NewCounter must dedupe on the Default registry")
	}
	// The Default registry is process-global, so the counters are
	// checked against their values before this test's increments.
	kwh := NewFloatCounter("short_kwh", "f")
	kwh0 := kwh.Value()
	kwh.Add(2)
	NewGauge("short_gauge", "g").Set(3)
	NewHistogram("short_seconds", "h", nil).Observe(0.1)
	byKind := NewCounterVec("short_by_kind_total", "v", "kind").With("a")
	byKind0 := byKind.Value()
	byKind.Inc()
	if DefaultTracer() == nil {
		t.Fatal("DefaultTracer must exist")
	}

	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	body := sb.String()
	for _, want := range []string{
		"short_total",
		"short_kwh " + strconv.FormatFloat(kwh0+2, 'g', -1, 64),
		"short_gauge 3",
		`short_by_kind_total{kind="a"} ` + strconv.FormatUint(byKind0+1, 10),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("default handler missing %q", want)
		}
	}
}

func TestObserveDurationAlias(t *testing.T) {
	h := NewDetachedHistogram([]float64{1})
	h.ObserveDuration(0.5)
	if h.Count() != 1 || h.Sum() != 0.5 {
		t.Fatalf("ObserveDuration: count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestNewHistogramRejectsUnsortedBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending buckets must panic")
		}
	}()
	NewDetachedHistogram([]float64{2, 1})
}

func TestCounterVecArityPanics(t *testing.T) {
	v := NewRegistry().CounterVec("arity_total", "v", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity must panic")
		}
	}()
	v.With("only-one")
}

func TestSnapshotUnmarshalErrors(t *testing.T) {
	var b BucketCount
	if err := json.Unmarshal([]byte(`{"le":"not-a-number","count":1}`), &b); err == nil {
		t.Fatal("bad bound must error")
	}
	if err := json.Unmarshal([]byte(`{`), &b); err == nil {
		t.Fatal("bad JSON must error")
	}
}

func TestSnapshotMergeMismatchPanics(t *testing.T) {
	a := NewDetachedHistogram([]float64{1}).Snapshot()
	b := NewDetachedHistogram([]float64{1, 2}).Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("bucket-count mismatch must panic")
		}
	}()
	a.Merge(b)
}

func TestQuantileClampsAndEmptyMergeNoop(t *testing.T) {
	h := NewDetachedHistogram([]float64{1, 2})
	h.Observe(0.5)
	s := h.Snapshot()
	if q := s.Quantile(-1); q < 0 {
		t.Errorf("q<0 should clamp, got %v", q)
	}
	if q := s.Quantile(2); q < 0 {
		t.Errorf("q>1 should clamp, got %v", q)
	}
	before := s.Count
	s.Merge(Snapshot{}) // merging an empty snapshot is a no-op
	if s.Count != before {
		t.Errorf("empty merge changed count: %d -> %d", before, s.Count)
	}
}
