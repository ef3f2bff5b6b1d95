// Degraded mode: when the durable store reports a persistent media
// fault (ENOSPC, EIO), the daemon keeps serving reads but refuses
// mutations with 503 instead of crashing mid-plan or silently accepting
// writes it cannot persist. Classification is probe-based: store.Probe
// appends and fsyncs a no-op WAL record, exercising the real write
// path. A probe also runs before each mutation while degraded, so the
// daemon heals itself the moment the disk recovers.
//
// Every tenant writes through one physical store, so the degraded state
// is held once, on the Daemon: a fault confirmed by any tenant degrades
// every tenant, and one successful recovery probe, from any tenant,
// heals them all. It reports through the unlabelled imcf_store_degraded*
// families; each refused mutation counts against the tenant it was
// meant for.
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
	storeDegradedGauge = metrics.NewGauge("imcf_store_degraded",
		"1 while the shared store is in read-only degraded mode, else 0.")
	storeDegradedEntries = metrics.NewCounter("imcf_store_degraded_entries_total",
		"Times the shared store entered read-only degraded mode.")
	tenantDegradedRejects = metrics.NewCounterVec("imcf_tenant_degraded_rejected_total",
		"Mutating requests rejected with 503 while the store was degraded.", "tenant")
	tenantHealthy = metrics.NewGaugeVec("imcf_tenant_healthy",
		"1 while the tenant's last planning cycle succeeded, else 0.", "tenant")
)

// degradedRetryAfter is the Retry-After hint on degraded 503s; clients
// with capped backoff (internal/client) honor it.
const degradedRetryAfter = "5"

// storeFault returns the probe error that degraded the store, or nil
// while the store accepts writes.
func (d *Daemon) storeFault() error {
	d.faultMu.Lock()
	defer d.faultMu.Unlock()
	return d.fault
}

// degrade puts the store into read-only degraded mode after a probe
// confirmed err. tenant and trace name the request or cycle that found
// the fault (trace is empty on the fleet path); they correlate the
// structured log record and the flight bundle with it.
func (d *Daemon) degrade(err error, tenant, trace string) {
	d.faultMu.Lock()
	entered := d.fault == nil
	if entered {
		d.fault = err
		storeDegradedGauge.Set(1)
		storeDegradedEntries.Inc()
	}
	d.faultMu.Unlock()
	if !entered {
		return
	}
	obs.L().LogAttrs(context.Background(), slog.LevelError,
		"store entering read-only degraded mode",
		slog.String("tenant", tenant),
		slog.String("trace", trace),
		obs.Error(err))
	d.flight("degraded", tenant, trace)
}

// probeRecovery re-checks the write path while degraded. A passing
// probe restores full service for every tenant and returns nil; a
// failing one returns its error.
func (d *Daemon) probeRecovery() error {
	if err := d.store.Probe(); err != nil {
		return err
	}
	d.faultMu.Lock()
	healed := d.fault != nil
	if healed {
		d.fault = nil
		storeDegradedGauge.Set(0)
	}
	d.faultMu.Unlock()
	if healed {
		obsLogf("daemon: disk recovered, leaving degraded mode")
	}
	return nil
}

// noteError classifies a failed planning cycle: a persistent media
// fault, confirmed by a failing probe, degrades the store; anything
// else is left to the tenant's health reporting. The probe keeps a
// wrapped one-off error from degrading a healthy disk.
func (d *Daemon) noteError(tenant string, err error) {
	if d.store == nil || !faultfs.IsDiskFault(err) || d.storeFault() != nil {
		return
	}
	if perr := d.store.Probe(); perr != nil {
		d.degrade(perr, tenant, "")
	}
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

// degradeMiddleware enforces read-only degraded mode around one
// tenant's REST API: while the store is degraded, mutations are refused
// with 503 + Retry-After (after a recovery probe, so service resumes as
// soon as the disk does); reads always pass. After any server error on
// a mutation, the write path is probed and a confirmed disk fault
// degrades the store.
func (d *Daemon) degradeMiddleware(tenant string, next http.Handler) http.Handler {
	if d.store == nil {
		return next // no durable layer, nothing to degrade
	}
	rejects := tenantDegradedRejects.With(tenant)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mutation := r.Method != http.MethodGet && r.Method != http.MethodHead
		if mutation && d.storeFault() != nil {
			if err := d.probeRecovery(); err != nil {
				rejects.Inc()
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("Retry-After", degradedRetryAfter)
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "{\"error\":%q}\n", "read-only degraded mode: "+err.Error()) //nolint:errcheck // response committed
				return
			}
		}
		sr := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(sr, r)
		if mutation && sr.status >= http.StatusInternalServerError && d.storeFault() == nil {
			// The handler failed server-side; probe the write path. A
			// failing probe means no mutation can be persisted, whatever
			// the root cause — degrade rather than keep returning 500s.
			if err := d.store.Probe(); err != nil {
				d.degrade(err, tenant, requestTrace(r))
			}
		}
	})
}
