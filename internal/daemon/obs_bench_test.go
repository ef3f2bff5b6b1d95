package daemon

import (
	"net/http/httptest"
	"testing"

	"github.com/imcf/imcf/internal/faultfs"
	"github.com/imcf/imcf/internal/obs"
)

// BenchmarkObsOverhead measures the observability tax on the serving
// path: one read request through the full tenant middleware chain
// (access log, degrade gate, trace middleware, controller API), with
// the obs layer in its production default (enabled, Info level — the
// Debug access-log record is level-gated away) versus globally
// disabled. The acceptance bar is <2% delta between the two cells.
func BenchmarkObsOverhead(b *testing.B) {
	run := func(b *testing.B, enabled bool) {
		obs.SetEnabled(enabled)
		defer obs.SetEnabled(true)

		d, err := New(Options{
			Addr:            "127.0.0.1:0",
			Residence:       "prototype",
			Seed:            7,
			Mode:            "EP",
			WeeklyBudgetKWh: 165,
			StoreDir:        "/bench/store",
			FS:              faultfs.NewMemFS(),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close() //nolint:errcheck // bench cleanup

		handler := d.Tenant(DefaultTenantID).api
		req := httptest.NewRequest("GET", "/rest/summary", nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatalf("GET /rest/summary = %d", rec.Code)
			}
		}
	}
	b.Run("enabled", func(b *testing.B) { run(b, true) })
	b.Run("disabled", func(b *testing.B) { run(b, false) })
}
