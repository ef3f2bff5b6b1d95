// Degraded mode: when a tenant's durable store reports a persistent
// media fault (ENOSPC, EIO), that tenant keeps serving reads but
// refuses mutations with 503 instead of crashing mid-plan or silently
// accepting writes it cannot persist. Classification is probe-based:
// store.Probe appends (and under SyncWrites fsyncs) a no-op WAL
// record, exercising the real write path. A probe also runs before
// each mutation while degraded, so a tenant heals itself the moment
// the disk recovers.
//
// Degraded mode is tenant-scoped: a tenant degrades when its own
// mutation fails and its probe confirms the fault, and heals on its own
// next mutation. Every tenant routes through one shared log, so a
// failing disk reaches each tenant as soon as it next writes. The
// default tenant also drives the legacy daemon-level gauges, keeping
// single-home dashboards unchanged.
package daemon

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"

	"github.com/imcf/imcf/internal/faultfs"
	"github.com/imcf/imcf/internal/metrics"
	"github.com/imcf/imcf/internal/obs"
)

var (
	degradedGauge = metrics.NewGauge("imcf_daemon_degraded",
		"1 while the default tenant is in read-only degraded mode (disk full or failing), else 0.")
	degradedEntries = metrics.NewCounter("imcf_daemon_degraded_entries_total",
		"Times the default tenant entered read-only degraded mode.")
	degradedRejects = metrics.NewCounter("imcf_daemon_degraded_rejected_total",
		"Mutating requests rejected with 503 while the default tenant was degraded.")

	tenantDegradedGauge = metrics.NewGaugeVec("imcf_tenant_degraded",
		"1 while the tenant is in read-only degraded mode, else 0.", "tenant")
	tenantDegradedEntries = metrics.NewCounterVec("imcf_tenant_degraded_entries_total",
		"Times the tenant entered read-only degraded mode.", "tenant")
	tenantDegradedRejects = metrics.NewCounterVec("imcf_tenant_degraded_rejected_total",
		"Mutating requests rejected with 503 while the tenant was degraded.", "tenant")
	tenantHealthy = metrics.NewGaugeVec("imcf_tenant_healthy",
		"1 while the tenant's last planning cycle succeeded, else 0.", "tenant")
)

// degradedRetryAfter is the Retry-After hint on degraded 503s; clients
// with capped backoff (internal/client) honor it.
const degradedRetryAfter = "5"

// Degraded reports whether the tenant is in read-only degraded mode.
func (t *Tenant) Degraded() bool {
	degraded, _ := t.health.Degraded()
	return degraded
}

// Degraded reports whether the default tenant is in read-only degraded
// mode — the single-home daemon's historical surface.
func (d *Daemon) Degraded() bool { return d.def.Degraded() }

// enterDegraded flips the tenant into read-only degraded mode. trace,
// when known (the middleware path has the triggering request's
// traceparent; the fleet path does not), correlates the structured log
// record and the flight bundle with the request that exposed the
// fault.
func (t *Tenant) enterDegraded(err error, trace string) {
	if degraded, _ := t.health.Degraded(); degraded {
		return
	}
	t.health.SetDegraded(err.Error())
	tenantDegradedGauge.With(t.id).Set(1)
	tenantDegradedEntries.With(t.id).Inc()
	if t.isDefault {
		degradedGauge.Set(1)
		degradedEntries.Inc()
	}
	obs.L().LogAttrs(context.Background(), slog.LevelError,
		"tenant entering read-only degraded mode",
		slog.String("tenant", t.id),
		slog.String("trace", trace),
		obs.Error(err))
	if t.flight != nil {
		t.flight("degraded", trace)
	}
}

// exitDegraded restores full service after a successful probe.
func (t *Tenant) exitDegraded() {
	if degraded, _ := t.health.Degraded(); !degraded {
		return
	}
	t.health.ClearDegraded()
	tenantDegradedGauge.With(t.id).Set(0)
	if t.isDefault {
		degradedGauge.Set(0)
	}
	t.logf("daemon: tenant %s disk recovered, leaving degraded mode", t.id)
}

// noteError classifies an error from the tenant's serving or planning
// path: persistent media faults trip degraded mode, anything else is
// left to the regular health reporting. The classification is confirmed
// by a probe so a wrapped one-off error cannot degrade a healthy disk.
func (t *Tenant) noteError(err error) {
	if err == nil || t.store == nil || t.Degraded() {
		return
	}
	if !faultfs.IsDiskFault(err) {
		return
	}
	if perr := t.store.Probe(); perr != nil {
		t.enterDegraded(perr, "")
	}
}

// probeRecovery re-checks the write path while degraded; it reports
// whether the tenant is (now) fully serviceable.
func (t *Tenant) probeRecovery() bool {
	if t.store == nil {
		return true
	}
	if err := t.store.Probe(); err != nil {
		return false
	}
	t.exitDegraded()
	return true
}

// statusRecorder captures the response status for post-serve fault
// classification.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(p)
}

// Unwrap exposes the wrapped writer to http.NewResponseController, so
// handlers behind degradeMiddleware keep the underlying writer's
// optional capabilities (http.Flusher, http.Hijacker, io.ReaderFrom).
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// Flush implements http.Flusher for handlers that type-assert the
// writer directly instead of going through a ResponseController.
func (sr *statusRecorder) Flush() {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// degradeMiddleware enforces read-only degraded mode around one
// tenant's REST API: while degraded, mutations are refused with 503 +
// Retry-After (after a recovery probe, so service resumes as soon as
// the disk does); reads always pass. After any server error on a
// mutation, the write path is probed and a confirmed disk fault flips
// the tenant into degraded mode.
func (t *Tenant) degradeMiddleware(next http.Handler) http.Handler {
	if t.store == nil {
		return next // no durable layer, nothing to degrade
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mutation := r.Method != http.MethodGet && r.Method != http.MethodHead
		if mutation && t.Degraded() && !t.probeRecovery() {
			tenantDegradedRejects.With(t.id).Inc()
			if t.isDefault {
				degradedRejects.Inc()
			}
			_, reason := t.health.Degraded()
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", degradedRetryAfter)
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "{\"error\":%q}\n", "read-only degraded mode: "+reason) //nolint:errcheck // response committed
			return
		}
		sr := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(sr, r)
		if mutation && sr.status >= http.StatusInternalServerError && !t.Degraded() {
			// The handler failed server-side; probe the write path. A
			// failing probe means no mutation can be persisted, whatever
			// the root cause — degrade rather than keep returning 500s.
			if err := t.store.Probe(); err != nil {
				t.enterDegraded(err, requestTrace(r))
			}
		}
	})
}
