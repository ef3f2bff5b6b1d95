// Package cloud implements the cloud tier of the IMCF architecture
// (Fig. 3 of the paper): the Cloud Controller (CC) that lets a user's
// APP reach their Local Controller from outside the smart space's NAT,
// and the Cloud Meta-Controller (CMC) role — the paper's "IMCF-Cloud"
// future-work extension — that configures rules across many sites at
// once.
//
// The Relay is an HTTP service with two route families:
//
//	GET  /cc/sites                     — registered sites
//	POST /cc/register                  — register a site {"site","url"}
//	DELETE /cc/sites/{site}            — unregister a site
//	ANY  /cc/sites/{site}/rest/...     — reverse-proxy to that site's LC
//	POST /cmc/broadcast/mrt            — push a Meta-Rule Table to every site
//	POST /cmc/broadcast/plan           — trigger an EP cycle on every site
//
// A site's decision stream (DESIGN.md §16) crosses the relay through
// the proxy: /cc/sites/{site}/rest/stream is flushed per chunk when the
// LC answers with server-sent events.
//
// A non-empty bearer token gates every route, standing in for the
// user-account auth a production CC would carry.
package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"

	"github.com/imcf/imcf/internal/metrics"
	"github.com/imcf/imcf/internal/obs"
)

// Relay request counters, by route family and outcome.
var (
	relayRequests = metrics.NewCounterVec("imcf_cloud_requests_total",
		"Requests handled by the cloud relay, by route family.", "route")
	relayAuthFailures = metrics.NewCounter("imcf_cloud_auth_failures_total",
		"Relay requests rejected for a missing or invalid bearer token.")
	relayProxyErrors = metrics.NewCounter("imcf_cloud_proxy_errors_total",
		"Upstream failures while proxying or broadcasting to site LCs.")
)

// Relay is the CC/CMC service. It is safe for concurrent use.
type Relay struct {
	token  string
	client *http.Client

	mu    sync.RWMutex
	sites map[string]*url.URL
}

// NewRelay returns a relay; token may be empty to disable auth (tests,
// trusted networks). client nil means http.DefaultClient.
func NewRelay(token string, client *http.Client) *Relay {
	if client == nil {
		client = http.DefaultClient
	}
	return &Relay{token: token, client: client, sites: make(map[string]*url.URL)}
}

// Register adds (or replaces) a site's Local Controller base URL.
func (r *Relay) Register(site, baseURL string) error {
	if site == "" || strings.ContainsAny(site, "/ \t") {
		return fmt.Errorf("cloud: invalid site name %q", site)
	}
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("cloud: invalid base URL %q", baseURL)
	}
	r.mu.Lock()
	r.sites[site] = u
	r.mu.Unlock()
	return nil
}

// Unregister removes a site. Removing a missing site is a no-op.
func (r *Relay) Unregister(site string) {
	r.mu.Lock()
	delete(r.sites, site)
	r.mu.Unlock()
}

// Sites returns the registered site names, sorted.
func (r *Relay) Sites() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.sites))
	for s := range r.sites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func (r *Relay) site(name string) (*url.URL, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	u, ok := r.sites[name]
	return u, ok
}

// Handler returns the relay's HTTP handler.
func (r *Relay) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cc/sites", r.withAuth(func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.Sites())
	}))
	mux.HandleFunc("POST /cc/register", r.withAuth(func(w http.ResponseWriter, req *http.Request) {
		var body struct {
			Site string `json:"site"`
			URL  string `json:"url"`
		}
		err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes)).Decode(&body)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": err.Error()})
			return
		}
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		if err := r.Register(body.Site, body.URL); err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}))
	mux.HandleFunc("DELETE /cc/sites/{site}", r.withAuth(func(w http.ResponseWriter, req *http.Request) {
		r.Unregister(req.PathValue("site"))
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}))
	mux.HandleFunc("/cc/sites/{rest...}", r.withAuth(r.proxy))
	mux.HandleFunc("POST /cmc/broadcast/mrt", r.withAuth(func(w http.ResponseWriter, req *http.Request) {
		r.broadcast(w, req, "/rest/mrt", true)
	}))
	mux.HandleFunc("POST /cmc/broadcast/plan", r.withAuth(func(w http.ResponseWriter, req *http.Request) {
		r.broadcast(w, req, "/rest/plan/run", false)
	}))
	// TraceMiddleware propagates an incoming traceparent (or mints one)
	// so a cycle triggered through the relay shares the APP's trace end
	// to end: client.request → http.cloud → cloud.proxy → http.api.
	return metrics.TraceMiddleware("http.cloud", mux)
}

func (r *Relay) withAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if r.token != "" {
			if req.Header.Get("Authorization") != "Bearer "+r.token {
				relayAuthFailures.Inc()
				writeJSON(w, http.StatusUnauthorized, map[string]string{"error": "invalid token"})
				return
			}
		}
		if strings.HasPrefix(req.URL.Path, "/cmc/") {
			relayRequests.With("cmc").Inc()
		} else {
			relayRequests.With("cc").Inc()
		}
		h(w, req)
	}
}

// proxy forwards /cc/sites/{site}/rest/... to the site's LC.
func (r *Relay) proxy(w http.ResponseWriter, req *http.Request) {
	rest := req.PathValue("rest")
	site, path, ok := strings.Cut(rest, "/")
	if !ok || !strings.HasPrefix(path, "rest/") {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "route is /cc/sites/{site}/rest/..."})
		return
	}
	base, found := r.site(site)
	if !found {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown site " + site})
		return
	}

	target := *base
	target.Path = strings.TrimSuffix(base.Path, "/") + "/" + path
	target.RawQuery = req.URL.RawQuery

	out, err := http.NewRequestWithContext(req.Context(), req.Method, target.String(), req.Body)
	if err != nil {
		relayProxyErrors.Inc()
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	}
	// Forward the APP's end-to-end request headers (Accept matters: it
	// selects the LC's SSE delta transport) but not its hop-by-hop set,
	// and not Authorization — the bearer token authenticates to the
	// relay, not to the site.
	out.Header = req.Header.Clone()
	stripHopByHop(out.Header)
	out.Header.Del("Authorization")
	if tc, ok := metrics.TraceFrom(req.Context()); ok {
		metrics.InjectTrace(out, tc)
	}
	sp := metrics.StartSpanTrace("cloud.proxy", nil, metrics.TraceIDFrom(req.Context()))
	resp, err := r.client.Do(out)
	sp.End(err)
	if err != nil {
		relayProxyErrors.Inc()
		obs.L().LogAttrs(req.Context(), slog.LevelError, "relay proxy failed",
			slog.String("site", site), obs.Error(err))
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	}
	defer resp.Body.Close()
	// The LC response's hop-by-hop headers describe its connection to
	// the relay, not the relay's connection to the APP — forwarding
	// them verbatim corrupts the client connection (a stray
	// "Transfer-Encoding: chunked" or "Connection: close" is the
	// classic failure). Strip them per RFC 9110 §7.6.1 before copying.
	stripHopByHop(resp.Header)
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	copyStreaming(w, resp)
}

// hopByHopHeaders are connection-scoped per RFC 9110 §7.6.1 and must
// never cross an intermediary.
var hopByHopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Proxy-Connection", "TE", "Trailer", "Transfer-Encoding", "Upgrade",
}

// stripHopByHop removes the hop-by-hop headers from h, including any
// additional ones the Connection header names.
func stripHopByHop(h http.Header) {
	for _, conn := range h.Values("Connection") {
		for _, name := range strings.Split(conn, ",") {
			if name = strings.TrimSpace(name); name != "" {
				h.Del(name)
			}
		}
	}
	for _, name := range hopByHopHeaders {
		h.Del(name)
	}
}

// copyBufs holds the proxy's copy buffers. Handing the body to
// io.Copy instead would take net/http's ReadFrom path, which allocates
// a fresh 32 KiB buffer for every proxied response.
var copyBufs = sync.Pool{New: func() any {
	b := make([]byte, 16*1024)
	return &b
}}

// copyStreaming relays the upstream body through a pooled buffer.
// Event-stream responses (the LC's SSE delta feed) are flushed per
// chunk so batches cross the relay as they are produced, not when the
// buffer fills.
func copyStreaming(w http.ResponseWriter, resp *http.Response) {
	var fl http.Flusher
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		fl, _ = w.(http.Flusher)
	}
	if fl != nil {
		// Push the header frame out before blocking on the first
		// upstream read: the APP's request does not complete until it
		// sees headers, and an idle stream may not produce a byte for a
		// long time.
		fl.Flush()
	}
	bp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bp)
	buf := *bp
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// closed the connection before the server finished. Nothing standard
// fits a caller-cancelled fan-out, and the write is best-effort anyway
// (the client is usually gone).
const statusClientClosedRequest = 499

// BroadcastResult reports one site's outcome of a CMC broadcast.
type BroadcastResult struct {
	Site   string `json:"site"`
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
}

// maxBodyBytes caps a request body: a registration or a CMC broadcast
// payload (an MRT is a few KB; a megabyte is already generous).
const maxBodyBytes = 1 << 20

// broadcast POSTs the request body (forwardBody) or an empty body to
// path on every registered site and reports per-site outcomes.
func (r *Relay) broadcast(w http.ResponseWriter, req *http.Request, path string, forwardBody bool) {
	var body []byte
	if forwardBody {
		// Read one byte past the limit: an oversized body must be
		// rejected outright, not silently truncated — a cut-short MRT
		// can still be valid JSON and would fan out a partial table to
		// every site.
		var err error
		body, err = io.ReadAll(io.LimitReader(req.Body, maxBodyBytes+1))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		if len(body) > maxBodyBytes {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{
				"error": fmt.Sprintf("body exceeds %d bytes", maxBodyBytes)})
			return
		}
		if !json.Valid(body) {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "body must be JSON"})
			return
		}
	}

	results := make([]BroadcastResult, 0, len(r.Sites()))
	allOK := true
	for _, site := range r.Sites() {
		// A hung site burns its full dial/response timeout; once the
		// APP has hung up there is no one left to report to, so stop
		// between sites instead of marching down the rest of the fleet.
		if err := req.Context().Err(); err != nil {
			obs.L().LogAttrs(req.Context(), slog.LevelWarn, "broadcast abandoned mid-fleet",
				slog.String("next_site", site), obs.Error(err))
			writeJSON(w, statusClientClosedRequest, append(results, BroadcastResult{
				Site: site, Error: "broadcast cancelled: " + err.Error()}))
			return
		}
		base, ok := r.site(site)
		if !ok {
			continue // unregistered between listing and dispatch
		}
		res := BroadcastResult{Site: site}
		target := strings.TrimSuffix(base.String(), "/") + path
		out, err := http.NewRequestWithContext(req.Context(), http.MethodPost, target, bytes.NewReader(body))
		if err != nil {
			res.Error = err.Error()
		} else {
			out.Header.Set("Content-Type", "application/json")
			if tc, ok := metrics.TraceFrom(req.Context()); ok {
				metrics.InjectTrace(out, tc)
			}
			sp := metrics.StartSpanTrace("cloud.broadcast", nil, metrics.TraceIDFrom(req.Context()))
			resp, err := r.client.Do(out)
			sp.End(err)
			if err != nil {
				res.Error = err.Error()
			} else {
				res.Status = resp.StatusCode
				cerr := resp.Body.Close()
				if resp.StatusCode >= 300 {
					res.Error = http.StatusText(resp.StatusCode)
				} else if cerr != nil {
					res.Error = "close response body: " + cerr.Error()
				}
			}
		}
		if res.Error != "" {
			relayProxyErrors.Inc()
			allOK = false
			obs.L().LogAttrs(req.Context(), slog.LevelWarn, "broadcast site failed",
				slog.String("site", site),
				slog.String("err", res.Error))
		}
		results = append(results, res)
	}
	status := http.StatusOK
	if !allOK {
		status = http.StatusBadGateway
	}
	writeJSON(w, status, results)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // response already committed
}
