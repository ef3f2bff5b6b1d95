package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"github.com/imcf/imcf/internal/metrics"
	"github.com/imcf/imcf/internal/stream"
)

// Stream-sync counters.
var (
	syncSnapshots = metrics.NewCounter("imcf_client_sync_snapshots_total",
		"Full snapshots fetched by the SDK's stream sync.")
	syncBatches = metrics.NewCounter("imcf_client_sync_batches_total",
		"Delta batches applied by the SDK's stream sync.")
)

// WatchOptions tunes a Watcher.
type WatchOptions struct {
	// Wait is the long-poll hold time requested per delta poll
	// (?wait=); zero means the server default.
	Wait time.Duration
	// OnUpdate, when set, runs after every applied snapshot or batch —
	// the mirror is current when it fires.
	OnUpdate func()
}

// Watcher maintains a live local mirror of the controller's decision
// stream: snapshot on connect, long-poll deltas resumed via
// Last-Event-Seq, and automatic re-snapshot when the server answers 409
// (producer restart or delta-ring gap). Every controller streams, so
// there is no other source to fall back to: errors back off with the
// client's capped-jitter schedule and the watcher keeps reconnecting
// until its context ends.
type Watcher struct {
	c      *Client
	mirror *stream.Mirror
	opts   WatchOptions
	done   chan struct{}
	err    error
}

// Mirror is the watcher's local replica. Safe to read at any time.
func (w *Watcher) Mirror() *stream.Mirror { return w.mirror }

// Done closes when the watcher has stopped (its context ended).
func (w *Watcher) Done() <-chan struct{} { return w.done }

// Err reports why the watcher stopped, nil before Done closes.
func (w *Watcher) Err() error {
	select {
	case <-w.done:
		return w.err
	default:
		return nil
	}
}

// Watch starts a watcher over the controller's decision stream and
// returns immediately; the mirror fills in as soon as the first
// snapshot lands. The watcher runs until ctx ends.
func (c *Client) Watch(ctx context.Context, opts WatchOptions) *Watcher {
	w := &Watcher{c: c, mirror: stream.NewMirror(), opts: opts, done: make(chan struct{})}
	go w.run(ctx)
	return w
}

// run drives the sync loop: stream until an error, then back off and
// reconnect, resuming from the mirror's position. The backoff counts
// consecutive failed sessions only: a session that applied a snapshot
// or a batch starts the count over.
func (w *Watcher) run(ctx context.Context) {
	defer close(w.done)
	for attempt := 1; ; attempt++ {
		// Every failure is retried until ctx ends, so the error only
		// ends the session.
		if applied, _ := w.c.streamSync(ctx, w.mirror, w.opts.Wait, w.opts.OnUpdate); applied {
			attempt = 1
		}
		if ctx.Err() != nil {
			w.err = ctx.Err()
			return
		}
		select {
		case <-ctx.Done():
			w.err = ctx.Err()
			return
		case <-time.After(w.c.backoff(attempt)):
		}
	}
}

// Sync brings a mirror up to date once and returns: a resumable mirror
// costs one delta poll (wait=0), anything else one snapshot. The same
// mirror can then be passed to later Sync calls to stay incremental.
func (c *Client) Sync(ctx context.Context, m *stream.Mirror) error {
	instance, seq := m.Position()
	if instance != "" {
		// wait < 0 → ?wait=0: answer immediately, this is a catch-up,
		// not a long poll.
		b, err := c.streamDeltas(ctx, instance, seq, -1)
		if err == nil {
			syncBatches.Inc()
			return m.ApplyBatch(b)
		}
		if !errors.Is(err, errResync) {
			return err
		}
	}
	snap, err := c.streamSnapshot(ctx)
	if err != nil {
		return err
	}
	syncSnapshots.Inc()
	m.ApplySnapshot(snap)
	return nil
}

// errResync is the server's 409: the position cannot be resumed and
// only a fresh snapshot helps.
var errResync = errors.New("client: stream position not resumable")

// isNotFound reports a 404 — from GET /rest/plan, no plan has run yet.
func isNotFound(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound
}

// streamSync runs one streaming session of delta polls until an
// error, and reports whether it applied anything before it ended. A
// mirror that has synced before resumes from its own position — a
// dropped connection costs no snapshot, only a reconnect — and
// snapshots are fetched only when the mirror is fresh or the server
// answers 409 (producer restart or delta-ring gap). Every applied
// update fires onUpdate.
func (c *Client) streamSync(ctx context.Context, m *stream.Mirror, wait time.Duration, onUpdate func()) (applied bool, err error) {
	if instance, _ := m.Position(); instance == "" {
		if err := c.resnapshot(ctx, m, onUpdate); err != nil {
			return false, err
		}
		applied = true
	}
	for {
		instance, seq := m.Position()
		b, err := c.streamDeltas(ctx, instance, seq, wait)
		if errors.Is(err, errResync) {
			if err := c.resnapshot(ctx, m, onUpdate); err != nil {
				return applied, err
			}
			applied = true
			continue
		}
		if err != nil {
			return applied, err
		}
		syncBatches.Inc()
		if err := m.ApplyBatch(b); err != nil {
			return applied, err
		}
		applied = true
		if len(b.Events) > 0 && onUpdate != nil {
			onUpdate()
		}
	}
}

// resnapshot replaces the mirror's state with a fresh snapshot.
func (c *Client) resnapshot(ctx context.Context, m *stream.Mirror, onUpdate func()) error {
	snap, err := c.streamSnapshot(ctx)
	if err != nil {
		return err
	}
	syncSnapshots.Inc()
	m.ApplySnapshot(snap)
	if onUpdate != nil {
		onUpdate()
	}
	return nil
}

// streamSnapshot fetches GET /rest/stream/snapshot.
func (c *Client) streamSnapshot(ctx context.Context) (stream.Snapshot, error) {
	var snap stream.Snapshot
	if err := c.get(ctx, "/rest/stream/snapshot", &snap); err != nil {
		return stream.Snapshot{}, err
	}
	return snap, nil
}

// streamDeltas long-polls GET /rest/stream from (instance, seq). A 409
// maps to errResync.
func (c *Client) streamDeltas(ctx context.Context, instance string, seq uint64, wait time.Duration) (stream.Batch, error) {
	path := "/rest/stream?instance=" + url.QueryEscape(instance) +
		"&seq=" + strconv.FormatUint(seq, 10)
	if wait > 0 {
		path += "&wait=" + strconv.FormatFloat(wait.Seconds(), 'f', -1, 64)
	} else if wait < 0 {
		path += "&wait=0"
	}
	var b stream.Batch
	err := c.get(ctx, path, &b)
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict {
		return stream.Batch{}, errResync
	}
	return b, err
}

// PollInto rebuilds a mirror's state from the plain REST read surfaces
// — the pre-stream protocol, kept as the equivalence harness's
// reference construction and as the baseline the sync protocols are
// priced against. The resulting state is canonically identical to a
// stream-maintained mirror's: GET /rest/mrt and GET /rest/plan serve
// the hub's own bytes, the firewall block set is marshalled by the same
// encoder, and the mirror compacts on Set.
func (c *Client) PollInto(ctx context.Context, m *stream.Mirror) error {
	var mrt json.RawMessage
	if err := c.get(ctx, "/rest/mrt", &mrt); err != nil {
		return err
	}
	if err := m.Set("", stream.KindMRT, mrt); err != nil {
		return err
	}
	var plan json.RawMessage
	err := c.get(ctx, "/rest/plan", &plan)
	switch {
	case err == nil:
		if err := m.Set("", stream.KindPlan, plan); err != nil {
			return err
		}
	case isNotFound(err):
		// No plan has run yet; the stream has no plan component either.
		if err := m.Set("", stream.KindPlan, nil); err != nil {
			return err
		}
	default:
		return err
	}
	status, err := c.Firewall(ctx)
	if err != nil {
		return err
	}
	// The stream carries the block set only (counters advance with
	// every flow check and are not state). Rules() is never nil on the
	// wire, but normalize anyway so both constructions render "[]".
	if status.Rules == nil {
		status.Rules = []string{}
	}
	rulesJSON, err := json.Marshal(status.Rules)
	if err != nil {
		return err
	}
	return m.Set("", stream.KindFirewall, rulesJSON)
}

// PollMirror builds a fresh poll-constructed mirror — three GETs, no
// stream involvement.
func (c *Client) PollMirror(ctx context.Context) (*stream.Mirror, error) {
	m := stream.NewMirror()
	if err := c.PollInto(ctx, m); err != nil {
		return nil, err
	}
	return m, nil
}

// GetConditional issues one conditional GET: If-None-Match carries
// etag when non-empty. It returns the body and new ETag, or
// notModified=true (and no body) on 304 — the cheap revalidation the
// stream-versioned read surfaces serve.
func (c *Client) GetConditional(ctx context.Context, path, etag string) (body json.RawMessage, newETag string, notModified bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, "", false, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	sdkRequests.Inc()
	resp, err := c.http.Do(req)
	if err != nil {
		sdkErrors.Inc()
		return nil, "", false, fmt.Errorf("client: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotModified:
		return nil, resp.Header.Get("ETag"), true, nil
	case resp.StatusCode >= 300:
		sdkErrors.Inc()
		return nil, "", false, &APIError{Status: resp.StatusCode, Message: http.StatusText(resp.StatusCode)}
	}
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", false, fmt.Errorf("client: read %s: %w", path, err)
	}
	return body, resp.Header.Get("ETag"), false, nil
}

// MirrorMRT decodes the mirror's Meta-Rule Table component, ok=false
// when it has not synced yet.
func MirrorMRT(m *stream.Mirror) (raw json.RawMessage, ok bool) {
	return m.Get("", stream.KindMRT)
}

// MirrorFirewallRules decodes the mirror's firewall block set.
func MirrorFirewallRules(m *stream.Mirror) ([]string, error) {
	var rules []string
	if _, err := m.Decode("", stream.KindFirewall, &rules); err != nil {
		return nil, err
	}
	return rules, nil
}
