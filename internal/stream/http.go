package stream

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/imcf/imcf/internal/metrics"
)

// Decision-stream request counters, by kind, shared by every hub
// server (controller edge and relay fan-out alike).
var (
	streamRequestsVec = metrics.NewCounterVec("imcf_stream_requests_total",
		"Decision-stream requests served, by kind.", "kind")
	streamSnapshots = streamRequestsVec.With("snapshot")
	streamPolls     = streamRequestsVec.With("poll")
	streamResyncs   = streamRequestsVec.With("resync")
	// StreamNotModified counts ETag revalidations answered 304 by the
	// stream-versioned read surfaces.
	StreamNotModified = streamRequestsVec.With("not_modified")
)

// Long-poll bounds for the delta endpoint: how long an idle poll is
// held open before answering with an empty batch. Clients choose
// anything up to the cap with ?wait=<seconds>; ?wait=0 returns
// immediately.
const (
	DefaultWait = 25 * time.Second
	MaxWait     = 55 * time.Second
)

// SnapshotHandler serves the hub's full state plus resume coordinates.
func (h *Hub) SnapshotHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		streamSnapshots.Inc()
		writeStreamJSON(w, http.StatusOK, h.Snapshot())
	}
}

// DeltaHandler serves the delta feed by long-poll: the response is one
// coalesced batch, held back up to ?wait= seconds when nothing is newer
// than the resume position (Last-Event-Seq header or ?seq=; instance
// from Stream-Instance or ?instance=). The response's Last-Event-Seq
// and Stream-Instance headers are the position to resume from. An
// unresumable position answers 409 and the subscriber refetches the
// snapshot.
func (h *Hub) DeltaHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		instance, seq, err := resumePosition(r, h)
		if err != nil {
			writeStreamJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		if _, ok := h.Since(instance, seq); !ok {
			writeResync(w)
			return
		}
		wait, err := parseWait(r)
		if err != nil {
			writeStreamJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		streamPolls.Inc()
		if wait > 0 && h.Seq() == seq {
			ctx, cancel := context.WithTimeout(r.Context(), wait)
			h.Wait(ctx, seq)
			cancel()
		}
		b, ok := h.Since(instance, seq)
		if !ok {
			// The ring lapped us while we waited; only a snapshot helps.
			writeResync(w)
			return
		}
		w.Header().Set("Last-Event-Seq", strconv.FormatUint(b.Through, 10))
		w.Header().Set("Stream-Instance", b.Instance)
		writeStreamJSON(w, http.StatusOK, b)
	}
}

// resumePosition extracts a subscriber's resume coordinates. Absent
// coordinates default to the hub's current position — "only what
// happens from now on", the natural start for a curl follow.
func resumePosition(r *http.Request, h *Hub) (instance string, seq uint64, err error) {
	instance = r.URL.Query().Get("instance")
	if instance == "" {
		instance = r.Header.Get("Stream-Instance")
	}
	if instance == "" {
		instance = h.Instance()
	}
	raw := r.Header.Get("Last-Event-Seq")
	if raw == "" {
		raw = r.URL.Query().Get("seq")
	}
	if raw == "" {
		return instance, h.Seq(), nil
	}
	seq, err = strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad resume position %q: %w", raw, err)
	}
	return instance, seq, nil
}

// parseWait parses ?wait=<seconds>, bounded by MaxWait.
func parseWait(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return DefaultWait, nil
	}
	secs, err := strconv.ParseFloat(raw, 64)
	if err != nil || secs < 0 {
		return 0, fmt.Errorf("bad wait %q", raw)
	}
	return min(time.Duration(secs*float64(time.Second)), MaxWait), nil
}

// writeResync tells a subscriber its position is no longer resumable
// (producer restart or a gap older than the delta ring): 409 with the
// cue to start over from a snapshot.
func writeResync(w http.ResponseWriter) {
	streamResyncs.Inc()
	writeStreamJSON(w, http.StatusConflict, map[string]string{
		"error":  "position not resumable; fetch a fresh snapshot",
		"resync": "snapshot",
	})
}

func writeStreamJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // response already committed
}
