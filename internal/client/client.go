// Package client is the Go SDK for the IMCF Local Controller's REST API
// — the programmatic equivalent of the mobile APP in the paper's
// architecture (Fig. 3). It works equally against a controller directly
// or through the Cloud Controller relay (point it at
// "<relay>/cc/sites/<site>").
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/imcf/imcf/internal/controller"
	"github.com/imcf/imcf/internal/metrics"
	"github.com/imcf/imcf/internal/obs"
	"github.com/imcf/imcf/internal/persistence"
	"github.com/imcf/imcf/internal/rules"
)

// SDK request counters.
var (
	sdkRequests = metrics.NewCounter("imcf_client_requests_total",
		"HTTP requests issued by the Go SDK, including retries.")
	sdkRetries = metrics.NewCounter("imcf_client_retries_total",
		"SDK requests re-issued after a transport error, 5xx or 429.")
	sdkErrors = metrics.NewCounter("imcf_client_errors_total",
		"SDK requests that ended in a transport error or non-2xx status.")
)

// Backoff policy: exponential growth from backoffBase, capped at
// backoffCap, with deterministic jitter in [d/2, d]. A server-supplied
// Retry-After (daemon degraded mode sends one on its 503s) overrides
// the computed delay, capped at retryAfterCap so a confused server
// cannot park the client for minutes.
const (
	backoffBase   = 10 * time.Millisecond
	backoffCap    = 2 * time.Second
	retryAfterCap = 30 * time.Second
)

// Client talks to one Local Controller.
type Client struct {
	base    string
	http    *http.Client
	retries int
	now     func() time.Time // clock seam for Retry-After HTTP-dates

	mu  sync.Mutex // guards rng
	rng *rand.Rand // jitter source, seeded from base for reproducibility
}

// New returns a client for the controller at baseURL. httpClient nil
// means http.DefaultClient.
func New(baseURL string, httpClient *http.Client) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: invalid base URL %q", baseURL)
	}
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	// Jitter is seeded from the base URL: retry timing is reproducible
	// for a given target, while clients of distinct controllers (or
	// relay paths) still spread out.
	h := fnv.New64a()
	h.Write([]byte(baseURL)) //nolint:errcheck // fnv writes never fail
	return &Client{
		base: strings.TrimSuffix(baseURL, "/"),
		http: httpClient,
		now:  time.Now,
		rng:  rand.New(rand.NewPCG(h.Sum64(), 0x9e3779b97f4a7c15)),
	}, nil
}

// WithRetries returns the client configured to re-issue requests up to
// n extra times on transport errors, 5xx responses or 429s, with
// capped exponential backoff and deterministic jitter; a Retry-After
// header on the response overrides the computed delay. Non-idempotent
// POSTs are retried too: every controller route tolerates replay (plan
// cycles are re-runnable, MRT/commands are idempotent writes).
func (c *Client) WithRetries(n int) *Client {
	if n < 0 {
		n = 0
	}
	c.retries = n
	return c
}

// APIError is a non-2xx response from the controller.
type APIError struct {
	Status  int
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("client: controller returned %d: %s", e.Status, e.Message)
}

// Item is one device row from GET /rest/items.
type Item struct {
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

// FirewallStatus is the GET /rest/firewall response.
type FirewallStatus struct {
	Rules   []string `json:"rules"`
	Allowed int64    `json:"allowed"`
	Dropped int64    `json:"dropped"`
}

// Point is one persisted reading.
type Point struct {
	Time  time.Time `json:"time"`
	Value float64   `json:"value"`
}

// Items lists the controller's devices.
func (c *Client) Items(ctx context.Context) ([]Item, error) {
	var out []Item
	return out, c.get(ctx, "/rest/items", &out)
}

// Command manually actuates a device. A firewall-blocked device returns
// an *APIError with status 403.
func (c *Client) Command(ctx context.Context, deviceID string, value float64) error {
	return c.post(ctx, "/rest/items/"+deviceID+"/command", map[string]float64{"value": value}, nil)
}

// MRT fetches the active Meta-Rule Table.
func (c *Client) MRT(ctx context.Context) (rules.MRT, error) {
	var out rules.MRT
	return out, c.get(ctx, "/rest/mrt", &out)
}

// SetMRT replaces the Meta-Rule Table.
func (c *Client) SetMRT(ctx context.Context, mrt rules.MRT) error {
	return c.post(ctx, "/rest/mrt", mrt, nil)
}

// Conflicts runs the MRT conflict analysis.
func (c *Client) Conflicts(ctx context.Context) ([]rules.Conflict, error) {
	var out []rules.Conflict
	return out, c.get(ctx, "/rest/mrt/conflicts", &out)
}

// RunPlan triggers one EP cycle and returns its report.
func (c *Client) RunPlan(ctx context.Context) (controller.StepReport, error) {
	var out controller.StepReport
	return out, c.post(ctx, "/rest/plan/run", nil, &out)
}

// LastPlan fetches the most recent EP report.
func (c *Client) LastPlan(ctx context.Context) (controller.StepReport, error) {
	var out controller.StepReport
	return out, c.get(ctx, "/rest/plan", &out)
}

// PlanHistory fetches up to a week of EP reports, oldest first.
func (c *Client) PlanHistory(ctx context.Context) ([]controller.StepReport, error) {
	var out []controller.StepReport
	return out, c.get(ctx, "/rest/plan/history", &out)
}

// Summary fetches the lifetime metrics.
func (c *Client) Summary(ctx context.Context) (controller.Summary, error) {
	var out controller.Summary
	return out, c.get(ctx, "/rest/summary", &out)
}

// Firewall fetches the flow table state.
func (c *Client) Firewall(ctx context.Context) (FirewallStatus, error) {
	var out FirewallStatus
	return out, c.get(ctx, "/rest/firewall", &out)
}

// PersistenceItems lists recorded measurement items.
func (c *Client) PersistenceItems(ctx context.Context) ([]string, error) {
	var out []string
	return out, c.get(ctx, "/rest/persistence/items", &out)
}

// Readings fetches an item's raw readings in [from, to).
func (c *Client) Readings(ctx context.Context, item string, from, to time.Time) ([]Point, error) {
	var out []Point
	path := fmt.Sprintf("/rest/persistence/data/%s?from=%s&to=%s",
		item, url.QueryEscape(from.Format(time.RFC3339)), url.QueryEscape(to.Format(time.RFC3339)))
	return out, c.get(ctx, path, &out)
}

// Aggregates fetches an item's bucketed statistics in [from, to).
func (c *Client) Aggregates(ctx context.Context, item string, from, to time.Time, bucket time.Duration) ([]persistence.Bucket, error) {
	var out []persistence.Bucket
	path := fmt.Sprintf("/rest/persistence/data/%s?from=%s&to=%s&bucket=%s",
		item, url.QueryEscape(from.Format(time.RFC3339)), url.QueryEscape(to.Format(time.RFC3339)), bucket)
	return out, c.get(ctx, path, &out)
}

// backoff returns the delay before retry number attempt (1-based):
// exponential growth from backoffBase capped at backoffCap, jittered
// into [d/2, d] so synchronized clients de-correlate. The jitter
// stream is per-client and seeded, so a test (or a replayed trace)
// sees the same delays every run.
func (c *Client) backoff(attempt int) time.Duration {
	d := backoffCap
	if attempt < 63 { // avoid shifting into the sign bit
		if shifted := backoffBase << (attempt - 1); shifted > 0 && shifted < backoffCap {
			d = shifted
		}
	}
	c.mu.Lock()
	j := time.Duration(c.rng.Int64N(int64(d)/2 + 1))
	c.mu.Unlock()
	return d/2 + j
}

// parseRetryAfter interprets a Retry-After header, either delta-seconds
// or an HTTP-date, capped at retryAfterCap. ok is false when the header
// is absent or unparseable. The HTTP-date branch measures against now —
// the client's injectable clock, not the wall — so tests exercise real
// dates without sleeping through them.
func parseRetryAfter(h string, now func() time.Time) (d time.Duration, ok bool) {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0, false
		}
		d = time.Duration(secs) * time.Second
	} else if t, err := http.ParseTime(h); err == nil {
		d = t.Sub(now())
		if d < 0 {
			d = 0
		}
	} else {
		return 0, false
	}
	return min(d, retryAfterCap), true
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	return c.do(ctx, http.MethodPost, path, body, out)
}

// do issues one request (with retries). Tracing: a TraceContext already
// on ctx is propagated via the traceparent header; otherwise the SDK
// mints a fresh trace — the APP is the root of the causal chain, so
// every hop downstream (relay, controller, firewall, journal) shares
// the ID this call stamps.
func (c *Client) do(ctx context.Context, method, path string, body, out any) (err error) {
	tc, hasTrace := metrics.TraceFrom(ctx)
	if !hasTrace {
		tc = metrics.NewTrace()
	}
	sp := metrics.StartSpanTrace("client.request", nil, tc.TraceIDString())
	defer func() { sp.End(err) }()

	var raw []byte
	if body != nil {
		raw, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: marshal request: %w", err)
		}
	} else if method == http.MethodPost {
		raw = []byte("{}")
	}
	var wait time.Duration // delay before the next attempt, set at the failure site
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			sdkRetries.Inc()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
		}
		// The request (and its body reader) is rebuilt every attempt: a
		// consumed reader cannot be replayed.
		var payload io.Reader
		if raw != nil {
			payload = bytes.NewReader(raw)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, payload)
		if err != nil {
			return err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		metrics.InjectTrace(req, tc)
		sdkRequests.Inc()
		resp, err := c.http.Do(req)
		if err != nil {
			sdkErrors.Inc()
			if attempt < c.retries && ctx.Err() == nil {
				wait = c.backoff(attempt + 1)
				obs.L().LogAttrs(ctx, slog.LevelDebug, "client retrying after transport error",
					slog.String("method", method), slog.String("path", path),
					slog.Int("attempt", attempt+1), obs.Error(err))
				continue
			}
			obs.L().LogAttrs(ctx, slog.LevelWarn, "client request failed",
				slog.String("method", method), slog.String("path", path), obs.Error(err))
			return fmt.Errorf("client: %s %s: %w", method, path, err)
		}
		if resp.StatusCode >= 300 {
			sdkErrors.Inc()
			var e struct {
				Error string `json:"error"`
			}
			msg := http.StatusText(resp.StatusCode)
			if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e) == nil && e.Error != "" {
				msg = e.Error
			}
			retryAfter := resp.Header.Get("Retry-After")
			drainClose(resp.Body)
			retryable := resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
			if retryable && attempt < c.retries {
				// A degraded or throttling server knows when to come back
				// better than our schedule does — honor its Retry-After.
				if d, ok := parseRetryAfter(retryAfter, c.now); ok {
					wait = d
				} else {
					wait = c.backoff(attempt + 1)
				}
				obs.L().LogAttrs(ctx, slog.LevelDebug, "client retrying after server status",
					slog.String("method", method), slog.String("path", path),
					slog.Int("status", resp.StatusCode), slog.Int("attempt", attempt+1))
				continue
			}
			return &APIError{Status: resp.StatusCode, Message: msg}
		}
		if out == nil {
			drainClose(resp.Body)
			return nil
		}
		err = json.NewDecoder(resp.Body).Decode(out)
		drainClose(resp.Body)
		if err != nil {
			return fmt.Errorf("client: decode %s response: %w", path, err)
		}
		return nil
	}
}

// drainClose reads what is left of a response body, up to a bound, and
// closes it. A body closed before EOF costs its keep-alive connection;
// one read to EOF returns the connection to the idle pool.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 4096)) //nolint:errcheck // best effort; the connection is dropped on error
	body.Close()
}

// IsBlocked reports whether err is the firewall rejecting a command.
func IsBlocked(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusForbidden
}
