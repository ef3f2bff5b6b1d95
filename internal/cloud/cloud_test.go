package cloud

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/controller"
	"github.com/imcf/imcf/internal/home"
	"github.com/imcf/imcf/internal/persistence"
	"github.com/imcf/imcf/internal/rules"
	"github.com/imcf/imcf/internal/simclock"
	"github.com/imcf/imcf/internal/stream"
)

// newSite boots a prototype controller behind its REST API.
func newSite(t *testing.T, seed uint64) (*controller.Controller, *httptest.Server) {
	return newStreamSite(t, seed, "")
}

// newStreamSite is newSite with a decision-stream hub whose instance
// token is instance; "" leaves the site its default hub.
func newStreamSite(t *testing.T, seed uint64, instance string) (*controller.Controller, *httptest.Server) {
	t.Helper()
	res, err := home.Prototype(seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := controller.Config{
		Residence:    res,
		Clock:        simclock.NewSimClock(time.Date(2015, time.January, 10, 20, 0, 0, 0, time.UTC)),
		WeeklyBudget: home.PrototypeWeeklyBudget,
	}
	if instance != "" {
		cfg.Stream = stream.NewHub(instance, 64)
	}
	cfg.Planner.Seed = seed
	c, err := controller.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(controller.API(c))
	t.Cleanup(srv.Close)
	return c, srv
}

func newRelay(t *testing.T, token string, sites map[string]string) *httptest.Server {
	t.Helper()
	r := NewRelay(token, nil)
	for name, u := range sites {
		if err := r.Register(name, u); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestRegisterValidation(t *testing.T) {
	r := NewRelay("", nil)
	if err := r.Register("", "http://x"); err == nil {
		t.Error("empty site accepted")
	}
	if err := r.Register("a/b", "http://x"); err == nil {
		t.Error("slash in site accepted")
	}
	if err := r.Register("home", "not a url"); err == nil {
		t.Error("invalid URL accepted")
	}
	if err := r.Register("home", "http://127.0.0.1:1"); err != nil {
		t.Errorf("valid registration rejected: %v", err)
	}
	r.Unregister("home")
	r.Unregister("home") // no-op
	if len(r.Sites()) != 0 {
		t.Errorf("sites = %v", r.Sites())
	}
}

func TestProxyReachesLocalController(t *testing.T) {
	_, lc := newSite(t, 42)
	relay := newRelay(t, "", map[string]string{"home": lc.URL})

	resp, err := http.Get(relay.URL + "/cc/sites/home/rest/items")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied GET items = %d", resp.StatusCode)
	}
	var items []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 6 {
		t.Errorf("items through relay = %d, want 6", len(items))
	}

	// POST proxying: run a plan remotely.
	resp, err = http.Post(relay.URL+"/cc/sites/home/rest/plan/run", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("proxied plan/run = %d", resp.StatusCode)
	}
}

func TestProxyUnknownSiteAndBadPaths(t *testing.T) {
	_, lc := newSite(t, 42)
	relay := newRelay(t, "", map[string]string{"home": lc.URL})

	for _, path := range []string{
		"/cc/sites/elsewhere/rest/items", // unknown site
		"/cc/sites/home/admin",           // not a /rest/ path
		"/cc/sites/home",                 // no path at all
	} {
		resp, err := http.Get(relay.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestProxyUnreachableSite(t *testing.T) {
	relay := newRelay(t, "", map[string]string{"dead": "http://127.0.0.1:1"})
	resp, err := http.Get(relay.URL + "/cc/sites/dead/rest/items")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("unreachable site = %d, want 502", resp.StatusCode)
	}
}

func TestAuthToken(t *testing.T) {
	_, lc := newSite(t, 42)
	relay := newRelay(t, "s3cret", map[string]string{"home": lc.URL})

	resp, err := http.Get(relay.URL + "/cc/sites")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated = %d, want 401", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, relay.URL+"/cc/sites", nil)
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("authenticated = %d", resp.StatusCode)
	}
	var sites []string
	if err := json.NewDecoder(resp.Body).Decode(&sites); err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1 || sites[0] != "home" {
		t.Errorf("sites = %v", sites)
	}
}

func TestCMCBroadcastMRT(t *testing.T) {
	c1, lc1 := newSite(t, 1)
	c2, lc2 := newSite(t, 2)
	relay := newRelay(t, "", map[string]string{"dorm-a": lc1.URL, "dorm-b": lc2.URL})

	// The campus CMC pushes a reduced MRT to every site.
	mrt := c1.MRT()
	var reduced rules.MRT
	for _, r := range mrt.Rules {
		if r.Owner == "Father" || r.IsBudget() {
			reduced.Rules = append(reduced.Rules, r)
		}
	}
	payload, _ := json.Marshal(reduced)
	resp, err := http.Post(relay.URL+"/cmc/broadcast/mrt", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("broadcast = %d", resp.StatusCode)
	}
	var results []BroadcastResult
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %+v", results)
	}
	for _, r := range results {
		if r.Status != http.StatusOK || r.Error != "" {
			t.Errorf("site %s: %+v", r.Site, r)
		}
	}
	// Both controllers now hold the reduced table.
	if got := len(c1.MRT().Rules); got != len(reduced.Rules) {
		t.Errorf("site 1 has %d rules, want %d", got, len(reduced.Rules))
	}
	if got := len(c2.MRT().Rules); got != len(reduced.Rules) {
		t.Errorf("site 2 has %d rules, want %d", got, len(reduced.Rules))
	}
}

func TestCMCBroadcastPlan(t *testing.T) {
	c1, lc1 := newSite(t, 1)
	c2, lc2 := newSite(t, 2)
	relay := newRelay(t, "", map[string]string{"a": lc1.URL, "b": lc2.URL})

	resp, err := http.Post(relay.URL+"/cmc/broadcast/plan", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("broadcast plan = %d", resp.StatusCode)
	}
	if c1.Summary().Steps != 1 || c2.Summary().Steps != 1 {
		t.Errorf("steps = %d, %d; want 1 each", c1.Summary().Steps, c2.Summary().Steps)
	}
}

func TestCMCBroadcastPartialFailure(t *testing.T) {
	_, lc := newSite(t, 1)
	relay := newRelay(t, "", map[string]string{"up": lc.URL, "down": "http://127.0.0.1:1"})

	resp, err := http.Post(relay.URL+"/cmc/broadcast/plan", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("partial failure status = %d, want 502", resp.StatusCode)
	}
	var results []BroadcastResult
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		t.Fatal(err)
	}
	okCount, errCount := 0, 0
	for _, r := range results {
		if r.Error == "" {
			okCount++
		} else {
			errCount++
		}
	}
	if okCount != 1 || errCount != 1 {
		t.Errorf("results = %+v", results)
	}
}

func TestCMCBroadcastRejectsBadBody(t *testing.T) {
	relay := newRelay(t, "", nil)
	resp, err := http.Post(relay.URL+"/cmc/broadcast/mrt", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body = %d, want 400", resp.StatusCode)
	}
}

func TestRegisterOverHTTP(t *testing.T) {
	_, lc := newSite(t, 42)
	relay := newRelay(t, "", nil)

	code := postJSONCloud(t, relay.URL+"/cc/register", map[string]string{"site": "home", "url": lc.URL})
	if code != http.StatusOK {
		t.Fatalf("register = %d", code)
	}
	resp, err := http.Get(relay.URL + "/cc/sites/home/rest/items")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("proxy after HTTP registration = %d", resp.StatusCode)
	}

	// Invalid registrations are rejected.
	if code := postJSONCloud(t, relay.URL+"/cc/register", map[string]string{"site": "a/b", "url": lc.URL}); code != http.StatusUnauthorized && code != http.StatusUnprocessableEntity {
		t.Errorf("bad site name = %d", code)
	}

	// Unregister over HTTP.
	req, _ := http.NewRequest(http.MethodDelete, relay.URL+"/cc/sites/home", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unregister = %d", resp.StatusCode)
	}
	resp, err = http.Get(relay.URL + "/cc/sites/home/rest/items")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("proxy after unregister = %d", resp.StatusCode)
	}
}

func postJSONCloud(t *testing.T, url string, body any) int {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestProxyPreservesQueryParams(t *testing.T) {
	// Persistence queries carry from/to/bucket query strings; the CC
	// must forward them intact.
	res, err := home.Prototype(42)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := persistence.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	clock := simclock.NewSimClock(time.Date(2015, time.January, 10, 20, 0, 0, 0, time.UTC))
	cfg := controller.Config{
		Residence:    res,
		Clock:        clock,
		WeeklyBudget: home.PrototypeWeeklyBudget,
		Persistence:  svc,
	}
	c, err := controller.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lc := httptest.NewServer(controller.API(c))
	defer lc.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Hour)
	}

	relay := newRelay(t, "", map[string]string{"home": lc.URL})
	from := time.Date(2015, time.January, 10, 0, 0, 0, 0, time.UTC).Format(time.RFC3339)
	to := time.Date(2015, time.January, 11, 0, 0, 0, 0, time.UTC).Format(time.RFC3339)
	u := relay.URL + "/cc/sites/home/rest/persistence/data/zone0/temperature?from=" +
		url.QueryEscape(from) + "&to=" + url.QueryEscape(to)
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied persistence query = %d", resp.StatusCode)
	}
	var points []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&points); err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Errorf("points through relay = %d, want 3", len(points))
	}
}

// TestProxyStreamsSSEThroughRelay proves the relay's body copy flushes
// event-stream responses chunk by chunk: an SSE batch published after
// the connection is up must arrive while the upstream holds the
// connection open — a buffered io.Copy would sit on it until EOF.
func TestProxyStreamsSSEThroughRelay(t *testing.T) {
	c, lc := newStreamSite(t, 42, "boot-sse")
	relay := newRelay(t, "", map[string]string{"home": lc.URL})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		relay.URL+"/cc/sites/home/rest/stream?instance=boot-sse&seq="+
			strconv.FormatUint(c.Stream().Seq(), 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type through relay = %q", ct)
	}

	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()

	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream closed before a batch arrived")
			}
			if line == "event: batch" {
				return // the delta crossed the relay while the stream is live
			}
		case <-deadline:
			t.Fatal("no SSE batch crossed the relay within 5s")
		}
	}
}
