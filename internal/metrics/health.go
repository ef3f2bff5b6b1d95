package metrics

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// Health is the daemon's liveness/readiness state: healthy until a
// component reports an error, healthy again once it reports success.
// The controller feeds it from every planning cycle, so /healthz flips
// to 503 when the planner errors and recovers with the next good cycle.
type Health struct {
	mu      sync.Mutex
	healthy bool
	reason  string
	since   time.Time

	gauge *Gauge // optional 1/0 mirror on /metrics
}

// NewHealth returns a healthy state. gauge, when non-nil, mirrors the
// state as 1 (healthy) / 0 (unhealthy) on /metrics.
func NewHealth(gauge *Gauge) *Health {
	h := &Health{healthy: true, since: time.Now(), gauge: gauge}
	if gauge != nil {
		gauge.Set(1)
	}
	return h
}

// SetHealthy marks the state healthy.
func (h *Health) SetHealthy() {
	h.mu.Lock()
	if !h.healthy {
		h.healthy = true
		h.reason = ""
		h.since = time.Now()
	}
	h.mu.Unlock()
	if h.gauge != nil {
		h.gauge.Set(1)
	}
}

// SetError marks the state unhealthy with the error as reason. A nil
// error is equivalent to SetHealthy.
func (h *Health) SetError(err error) {
	if err == nil {
		h.SetHealthy()
		return
	}
	h.mu.Lock()
	h.healthy = false
	h.reason = err.Error()
	h.since = time.Now()
	h.mu.Unlock()
	if h.gauge != nil {
		h.gauge.Set(0)
	}
}

// Healthy reports the current state and, when unhealthy, the reason.
func (h *Health) Healthy() (bool, string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.healthy, h.reason
}

// Handler serves the health state as JSON: 200 {"status":"ok"} when
// healthy, 503 {"status":"unhealthy","reason":...} when not — mount it
// at GET /healthz.
func (h *Health) Handler() http.Handler { return h.HandlerDetail(nil) }

// HandlerDetail is Handler with extra detail merged into the JSON body:
// detail, when non-nil, is invoked per request and its keys are added
// alongside the status fields (which always win on collision). The
// daemon uses it to publish per-tenant SLO state on /healthz without
// changing the liveness semantics.
func (h *Health) HandlerDetail(detail func() map[string]any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		h.mu.Lock()
		ok, reason, since := h.healthy, h.reason, h.since
		h.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		body := map[string]any{}
		if detail != nil {
			for k, v := range detail() {
				body[k] = v
			}
		}
		body["status"] = "ok"
		body["since"] = since.Format(time.RFC3339Nano)
		status := http.StatusOK
		if !ok {
			body["status"] = "unhealthy"
			body["reason"] = reason
			status = http.StatusServiceUnavailable
		}
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(body) //nolint:errcheck // response committed
	})
}
