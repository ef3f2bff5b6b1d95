package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestProxyStripsHopByHopHeaders is the regression test for the relay
// forwarding connection-scoped headers verbatim: an upstream that
// sends Connection, Keep-Alive, Transfer-Encoding, Upgrade and a
// Connection-named custom header must have all of them stripped, while
// end-to-end headers pass through.
func TestProxyStripsHopByHopHeaders(t *testing.T) {
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("X-End-To-End", "keep-me")
		h.Set("Keep-Alive", "timeout=5")
		h.Set("Upgrade", "h2c")
		h.Set("Proxy-Authenticate", "Basic")
		h.Set("Trailer", "X-T")
		// Connection-named custom headers can't cross a real Go upstream
		// (net/http swallows handler-set Connection response headers),
		// so that path is covered by TestStripHopByHop directly.
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"ok":true}`)) //nolint:errcheck
	}))
	t.Cleanup(up.Close)

	relay := NewRelay("", nil)
	if err := relay.Register("home", up.URL); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(relay.Handler())
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/cc/sites/home/rest/items")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	for _, name := range []string{"Keep-Alive", "Upgrade", "Proxy-Authenticate", "Trailer"} {
		if got := resp.Header.Get(name); got != "" {
			t.Errorf("hop-by-hop header %s forwarded: %q", name, got)
		}
	}
	if got := resp.Header.Get("X-End-To-End"); got != "keep-me" {
		t.Errorf("end-to-end header lost: %q", got)
	}
}

// TestStripHopByHop exercises the Connection-named stripping directly:
// RFC 9110 §7.6.1 makes any header listed in Connection hop-by-hop,
// even a custom one.
func TestStripHopByHop(t *testing.T) {
	h := http.Header{}
	h.Set("Connection", "close, X-Hop-Custom")
	h.Set("X-Hop-Custom", "drop-me")
	h.Set("Keep-Alive", "timeout=5")
	h.Set("TE", "trailers")
	h.Set("Transfer-Encoding", "chunked")
	h.Set("Content-Type", "application/json")
	stripHopByHop(h)
	for _, name := range []string{"Connection", "X-Hop-Custom", "Keep-Alive", "TE", "Transfer-Encoding"} {
		if got := h.Get(name); got != "" {
			t.Errorf("%s survived the strip: %q", name, got)
		}
	}
	if got := h.Get("Content-Type"); got != "application/json" {
		t.Errorf("end-to-end header lost: %q", got)
	}
}

// TestBroadcastRejectsOversizedBody is the regression test for silent
// truncation: a payload over the limit must be refused with 413, not
// cut at 1 MiB and fanned out.
func TestBroadcastRejectsOversizedBody(t *testing.T) {
	var fanned atomic.Int64
	site := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fanned.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(site.Close)
	relay := NewRelay("", nil)
	if err := relay.Register("home", site.URL); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(relay.Handler())
	t.Cleanup(srv.Close)

	// Valid JSON either way: a long string. The oversized variant would
	// have been truncated to invalid JSON before — the dangerous case is
	// payloads whose 1 MiB prefix is still valid, so size, not syntax,
	// must be the rejection.
	huge := `{"rules":[{"id":"` + strings.Repeat("x", maxBodyBytes) + `"}]}`
	resp, err := http.Post(srv.URL+"/cmc/broadcast/mrt", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized broadcast = %d, want 413", resp.StatusCode)
	}
	if n := fanned.Load(); n != 0 {
		t.Fatalf("oversized body still fanned out to %d sites", n)
	}

	// At the limit exactly: accepted.
	okBody, err := json.Marshal(map[string]string{"pad": strings.Repeat("y", 1024)})
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(srv.URL+"/cmc/broadcast/mrt", "application/json", bytes.NewReader(okBody))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("in-limit broadcast = %d", resp2.StatusCode)
	}
}

// TestBroadcastStopsOnCancelledContext is the regression test for the
// relay marching down the whole fleet after the APP hung up: with the
// first site hanging until client timeout, the remaining sites must
// never be dialed.
func TestBroadcastStopsOnCancelledContext(t *testing.T) {
	var dialed atomic.Int64
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dialed.Add(1)
		<-r.Context().Done() // hang until the relay's forward is cancelled
	}))
	t.Cleanup(slow.Close)
	var lateDials atomic.Int64
	late := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lateDials.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(late.Close)

	relay := NewRelay("", nil)
	// Sites broadcast in sorted order: a-slow first, then the rest.
	if err := relay.Register("a-slow", slow.URL); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"b-late", "c-late", "d-late"} {
		if err := relay.Register(name, late.URL); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(relay.Handler())
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/cmc/broadcast/plan", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("cancelled broadcast returned a response")
	}

	// Give the handler a moment to (incorrectly) continue, then assert
	// it stopped at the cancellation boundary.
	time.Sleep(200 * time.Millisecond)
	if n := dialed.Load(); n != 1 {
		t.Fatalf("slow site dialed %d times", n)
	}
	if n := lateDials.Load(); n != 0 {
		t.Fatalf("relay kept dialing %d sites after the client hung up", n)
	}
}

// TestRegisterRejectsOversizedBody bounds the registration body: an
// oversized one is refused with 413 and registers nothing, while a
// normal one still registers.
func TestRegisterRejectsOversizedBody(t *testing.T) {
	relay := NewRelay("", nil)
	srv := httptest.NewServer(relay.Handler())
	t.Cleanup(srv.Close)

	huge := `{"site":"home","url":"http://127.0.0.1:1","pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	resp, err := http.Post(srv.URL+"/cc/register", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized register = %d, want 413", resp.StatusCode)
	}
	if sites := relay.Sites(); len(sites) != 0 {
		t.Fatalf("oversized register registered %v", sites)
	}

	resp, err = http.Post(srv.URL+"/cc/register", "application/json",
		strings.NewReader(`{"site":"home","url":"http://127.0.0.1:1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal register = %d, want 200", resp.StatusCode)
	}
	if sites := relay.Sites(); len(sites) != 1 {
		t.Fatalf("sites after register = %v, want one", sites)
	}
}
