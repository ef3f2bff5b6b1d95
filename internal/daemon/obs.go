// Observability wiring: the daemon-side glue between the serving path
// and internal/obs — the operator log, the structured access log, the
// per-tenant SLO feed, /healthz with its SLO detail, the opt-in debug
// listener (pprof and manual flight triggers) and the flight-recorder
// taps that correlate log records, spans and journal events by the
// triggering tenant and trace.
package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"

	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/metrics"
	"github.com/imcf/imcf/internal/obs"
)

// obsLogf is the operator log: printf-shaped messages routed into the
// structured obs layer at Info, so daemon narration lands in the
// /debug/logs ring (and any JSON-line mirror) alongside the
// serving-path records.
func obsLogf(format string, args ...any) {
	l := obs.L()
	if !l.Enabled(context.Background(), slog.LevelInfo) {
		return
	}
	l.Info(fmt.Sprintf(format, args...))
}

// onSLOTransition reacts to alert state-machine edges: every transition
// is logged; a page transition snapshots a flight bundle for the paging
// tenant.
func (d *Daemon) onSLOTransition(tenant string, from, to obs.State) {
	lvl := slog.LevelWarn
	if to == obs.StateOK {
		lvl = slog.LevelInfo
	}
	obs.L().LogAttrs(context.Background(), lvl, "slo transition",
		slog.String("tenant", tenant),
		slog.String("from", from.String()),
		slog.String("to", to.String()))
	if to == obs.StatePage {
		d.flight("slo-page", tenant, "")
	}
}

// newRecorder builds the flight recorder over the daemon's substrates:
// the default log ring, the default tracer, the merged decision
// journals and the default metrics registry, all written through the
// daemon's file layer so crash tests can fault-inject the bundle path.
func (d *Daemon) newRecorder(opts Options) (*obs.Recorder, error) {
	ring := obs.DefaultHandler().Ring()
	return obs.NewRecorder(obs.RecorderOptions{
		Dir: opts.DiagnosticsDir,
		FS:  opts.FS,
		Now: d.clock.Now,
		Sources: obs.Sources{
			Logs: func(tenant, trace string) []obs.Record {
				// A trace pins the exact causal chain; otherwise fall back
				// to everything the tenant logged (or everything, for
				// process-wide triggers like SIGQUIT).
				if trace != "" {
					return ring.Query("", trace, slog.LevelDebug, 0)
				}
				return ring.Query(tenant, "", slog.LevelDebug, 0)
			},
			Spans: func(trace string) []metrics.SpanRecord {
				if trace != "" {
					return metrics.DefaultTracer().ByTrace(trace)
				}
				return metrics.DefaultTracer().Recent()
			},
			Journal: func(tenant, trace string) []journal.Event {
				return d.mergedDecisions(journal.Filter{Tenant: tenant, Trace: trace})
			},
			Metrics: func() []byte {
				var buf bytes.Buffer
				bw := bufio.NewWriter(&buf)
				metrics.Default().WritePrometheus(bw)
				bw.Flush() //nolint:errcheck // bytes.Buffer cannot fail
				return buf.Bytes()
			},
		},
	})
}

// flight dumps a diagnostic bundle for an automatic trigger (degraded
// entry, SLO page) when the recorder is on. Suppressed triggers (the
// rate limit) are silent; real failures are logged, never propagated —
// diagnostics must not break serving.
func (d *Daemon) flight(reason, tenant, trace string) {
	if d.recorder == nil {
		return
	}
	if _, err := d.recorder.Trigger(reason, tenant, trace); err != nil && !errors.Is(err, obs.ErrSuppressed) {
		obsLogf("daemon: flight recorder: %v", err)
	}
}

// TriggerFlight dumps a diagnostic bundle on demand (SIGQUIT, POST
// /debug/flight) and returns its directory.
func (d *Daemon) TriggerFlight(reason, tenant, trace string) (string, error) {
	if d.recorder == nil {
		return "", errors.New("daemon: flight recorder disabled (no diagnostics directory)")
	}
	return d.recorder.Trigger(reason, tenant, trace)
}

// healthDetail decorates /healthz with the SLO engine's per-tenant
// alert states and rolling-window statistics.
func (d *Daemon) healthDetail() map[string]any {
	return map[string]any{"slo": d.slo.Snapshot(d.clock.Now())}
}

// healthz serves GET /healthz: 503 {"status":"degraded"} with the probe
// error while the store is degraded, otherwise the default tenant's
// liveness; both carry the SLO detail.
func (d *Daemon) healthz() http.Handler {
	live := d.def.health.HandlerDetail(d.healthDetail)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fault := d.storeFault()
		if fault == nil {
			live.ServeHTTP(w, r)
			return
		}
		body := d.healthDetail()
		body["status"] = "degraded"
		body["reason"] = fault.Error()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(body) //nolint:errcheck // response committed
	})
}

// debugMux assembles the opt-in debug listener: the pprof surface and
// the manual flight trigger. The structured-log query endpoint,
// /debug/logs, is served on the metrics listener with the other
// /debug/* reads.
func (d *Daemon) debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("POST /debug/flight", d.flightHandler)
	return mux
}

// flightHandler serves POST /debug/flight?reason=&tenant=&trace=: a
// manual bundle dump, answering with the bundle directory.
func (d *Daemon) flightHandler(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	reason := q.Get("reason")
	if reason == "" {
		reason = "manual"
	}
	dir, err := d.TriggerFlight(reason, q.Get("tenant"), q.Get("trace"))
	w.Header().Set("Content-Type", "application/json")
	switch {
	case errors.Is(err, obs.ErrSuppressed):
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck // response committed
	case err != nil:
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck // response committed
	default:
		json.NewEncoder(w).Encode(map[string]string{"bundle": dir}) //nolint:errcheck // response committed
	}
}

// requestTrace extracts the W3C trace ID from an incoming request's
// traceparent header — the correlation key for middleware running
// outside metrics.TraceMiddleware (which lives inside controller.API).
func requestTrace(r *http.Request) string {
	if tc, ok := metrics.ParseTraceparent(r.Header.Get(metrics.TraceHeader)); ok {
		return tc.TraceIDString()
	}
	return ""
}

// obsMiddleware is the tenant's structured access log: one record per
// request (Debug for successes, Warn for server errors) carrying the
// tenant, trace, method, path, status and latency. The level check runs
// before any attribute is built, so below-level requests cost one
// atomic load and allocate nothing in the obs layer.
func (t *Tenant) obsMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := obs.WithTenant(r.Context(), t.id)
		r = r.WithContext(ctx)
		sr := &statusRecorder{ResponseWriter: w}
		start := t.clock.Now()
		next.ServeHTTP(sr, r)
		seconds := t.clock.Now().Sub(start).Seconds()
		status := sr.status
		if status == 0 {
			status = http.StatusOK
		}
		lvl := slog.LevelDebug
		if status >= http.StatusInternalServerError {
			lvl = slog.LevelWarn
		}
		l := obs.L()
		if !l.Enabled(ctx, lvl) {
			return
		}
		l.LogAttrs(ctx, lvl, "http.request",
			slog.String("trace", requestTrace(r)),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Float64("seconds", seconds))
	})
}
