package metrics

import (
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

func TestNewHistogramRejectsUnsortedBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending buckets must panic")
		}
	}()
	newHistogram("", "", []float64{2, 1})
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
