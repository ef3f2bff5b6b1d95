package controller

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"github.com/imcf/imcf/internal/metrics"
	"github.com/imcf/imcf/internal/obs"
	"github.com/imcf/imcf/internal/rules"
	"github.com/imcf/imcf/internal/stream"
)

// API wraps a controller with the REST interface the openHAB panel and
// the IMCF GUI call. Routes (all JSON):
//
//	GET  /rest/items                  — devices and their runtime state
//	POST /rest/items/{id}/command     — manual actuation {"value": 25}
//	GET  /rest/mrt                    — the active Meta-Rule Table
//	POST /rest/mrt                    — replace the Meta-Rule Table
//	POST /rest/plan/run               — run one EP cycle now
//	GET  /rest/plan                   — the last EP step report
//	GET  /rest/plan/history           — the last week of step reports
//	GET  /rest/summary                — lifetime F_E / F_CE metrics
//	GET  /rest/firewall               — active block rules and counters
//	GET  /rest/persistence/items      — recorded measurement items
//	GET  /rest/persistence/data/{item} — readings or ?bucket= aggregates
//	GET  /rest/mrt/conflicts          — MRT clash/shadow/budget analysis
//	GET  /rest/stream/snapshot        — decision-stream snapshot (DESIGN.md §16)
//	GET  /rest/stream                 — decision-stream deltas (long-poll)
//	GET  /                            — the embedded panel UI (Fig. 5 stand-in)
//
// GET /rest/mrt and /rest/plan serve the decision stream's stored bytes
// for their component under that version's ETag; GET
// /rest/firewall?rules=only carries the block set's ETag over a body
// built with the live counters. All three honor If-None-Match with 304.
//
// Every route runs behind metrics.TraceMiddleware: an incoming
// traceparent header is propagated (and echoed on the response) or a
// fresh trace is minted, so POST /rest/plan/run ties the cycle's span,
// journal events and firewall blocks to the caller's trace.
func API(c *Controller) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", dashboardHandler())
	mux.HandleFunc("GET /rest/items", func(w http.ResponseWriter, r *http.Request) {
		type item struct {
			ID       string  `json:"id"`
			Name     string  `json:"name"`
			Class    string  `json:"class"`
			Zone     int     `json:"zone"`
			Addr     string  `json:"addr"`
			On       bool    `json:"on"`
			Setpoint float64 `json:"setpoint"`
			Commands int     `json:"commands"`
			Blocked  bool    `json:"blocked"`
		}
		var items []item
		for _, d := range c.Registry().List() {
			_, st, _ := c.Registry().Get(d.ID)
			on, sp, _, n := st.Snapshot()
			items = append(items, item{
				ID: d.ID, Name: d.Name, Class: d.Class.String(), Zone: d.Zone,
				Addr: d.Addr, On: on, Setpoint: sp, Commands: n,
				Blocked: c.Firewall().Blocked(d.Addr),
			})
		}
		writeJSON(w, http.StatusOK, items)
	})

	// Device IDs contain slashes ("proto/z0/hvac"), so the command
	// route captures the remainder and strips the "/command" suffix.
	mux.HandleFunc("POST /rest/items/{path...}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := strings.CutSuffix(r.PathValue("path"), "/command")
		if !ok {
			writeError(w, r, http.StatusNotFound, errors.New("unknown item action"))
			return
		}
		var body struct {
			Value float64 `json:"value"`
		}
		if !decodeBody(w, r, &body) {
			return
		}
		err := c.Command(id, body.Value)
		switch {
		case errors.Is(err, ErrBlocked):
			writeError(w, r, http.StatusForbidden, err)
		case err != nil:
			writeError(w, r, http.StatusNotFound, err)
		default:
			writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
		}
	})

	mux.HandleFunc("GET /rest/mrt", func(w http.ResponseWriter, r *http.Request) {
		serveComponent(w, r, c.Stream(), stream.KindMRT) // New publishes the MRT
	})

	mux.HandleFunc("GET /rest/mrt/conflicts", func(w http.ResponseWriter, r *http.Request) {
		conflicts, err := c.AnalyzeConflicts()
		if err != nil {
			writeError(w, r, http.StatusInternalServerError, err)
			return
		}
		if conflicts == nil {
			conflicts = []rules.Conflict{}
		}
		writeJSON(w, http.StatusOK, conflicts)
	})

	mux.HandleFunc("POST /rest/mrt", func(w http.ResponseWriter, r *http.Request) {
		var t rules.MRT
		if !decodeBody(w, r, &t) {
			return
		}
		if err := c.SetMRT(t); err != nil {
			// A table that failed to persist is a server fault, not a
			// client one. It was never installed: the previous MRT stays
			// active, published and persisted.
			var pe *PersistError
			if errors.As(err, &pe) {
				writeError(w, r, http.StatusInternalServerError, err)
				return
			}
			writeError(w, r, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})

	mux.HandleFunc("POST /rest/plan/run", func(w http.ResponseWriter, r *http.Request) {
		report, err := c.StepCtx(r.Context())
		if err != nil {
			writeError(w, r, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, report)
	})

	mux.HandleFunc("GET /rest/plan", func(w http.ResponseWriter, r *http.Request) {
		if !serveComponent(w, r, c.Stream(), stream.KindPlan) {
			writeError(w, r, http.StatusNotFound, errors.New("no plan has run yet"))
		}
	})

	mux.HandleFunc("GET /rest/summary", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Summary())
	})

	mux.HandleFunc("GET /rest/plan/history", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.History())
	})

	mux.HandleFunc("GET /rest/persistence/items", func(w http.ResponseWriter, r *http.Request) {
		p := c.Persistence()
		if p == nil {
			writeError(w, r, http.StatusNotFound, errors.New("persistence is disabled"))
			return
		}
		items, err := p.Items()
		if err != nil {
			writeError(w, r, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, items)
	})

	// GET /rest/persistence/data/{item}?from=RFC3339&to=RFC3339[&bucket=1h]
	mux.HandleFunc("GET /rest/persistence/data/{item...}", func(w http.ResponseWriter, r *http.Request) {
		p := c.Persistence()
		if p == nil {
			writeError(w, r, http.StatusNotFound, errors.New("persistence is disabled"))
			return
		}
		item := r.PathValue("item")
		q := r.URL.Query()
		from, err := time.Parse(time.RFC3339, q.Get("from"))
		if err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad from: %w", err))
			return
		}
		to, err := time.Parse(time.RFC3339, q.Get("to"))
		if err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad to: %w", err))
			return
		}
		if bucketStr := q.Get("bucket"); bucketStr != "" {
			bucket, err := time.ParseDuration(bucketStr)
			if err != nil {
				writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad bucket: %w", err))
				return
			}
			buckets, err := p.Aggregate(item, from, to, bucket)
			if err != nil {
				writeError(w, r, http.StatusNotFound, err)
				return
			}
			writeJSON(w, http.StatusOK, buckets)
			return
		}
		recs, err := p.Query(item, from, to)
		if err != nil {
			writeError(w, r, http.StatusNotFound, err)
			return
		}
		type point struct {
			Time  time.Time `json:"time"`
			Value float64   `json:"value"`
		}
		out := make([]point, len(recs))
		for i, rec := range recs {
			out[i] = point{Time: rec.Time, Value: rec.Value}
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /rest/firewall", func(w http.ResponseWriter, r *http.Request) {
		// The ETag versions the block set only; the allowed/dropped
		// counters advance with every flow check and are not part of
		// the streamed state, so the body is built here, not read from
		// the hub.
		if r.URL.Query().Get("rules") == "only" {
			_, seq := c.Stream().Component("", stream.KindFirewall)
			if componentETag(w, r, c.Stream(), seq) {
				return
			}
		}
		allowed, dropped := c.Firewall().Counters()
		writeJSON(w, http.StatusOK, map[string]any{
			"rules":   c.Firewall().Rules(),
			"allowed": allowed,
			"dropped": dropped,
		})
	})

	mux.Handle("GET /rest/stream/snapshot", c.Stream().SnapshotHandler())
	mux.Handle("GET /rest/stream", c.Stream().DeltaHandler())

	return metrics.TraceMiddleware("http.api", mux)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // response already committed
}

// maxBodyBytes caps a request body: an MRT is a few KB and a command a
// few bytes, so a megabyte is already generous.
const maxBodyBytes = 1 << 20

// decodeBody decodes a JSON request body of at most maxBodyBytes into
// v. It answers 413 for an oversized body and 400 for a malformed one,
// and reports whether v was filled.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeError(w, r, http.StatusRequestEntityTooLarge, err)
	case err != nil:
		writeError(w, r, http.StatusBadRequest, err)
	default:
		return true
	}
	return false
}

// writeError answers an error response and logs it through the obs
// layer with the request's correlation identity: server faults at
// Error (they page), client faults at Debug (they don't). The level
// check runs before any attribute is built.
func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
	lvl := slog.LevelDebug
	if status >= http.StatusInternalServerError {
		lvl = slog.LevelError
	}
	ctx := r.Context()
	l := obs.L()
	if !l.Enabled(ctx, lvl) {
		return
	}
	l.LogAttrs(ctx, lvl, "api error",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		obs.Error(err))
}
