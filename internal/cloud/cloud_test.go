package cloud

import (
	"bytes"
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

// TestProxyStreamsLongPollThroughRelay proves a delta long-poll crosses
// the relay whole: the resume position travels to the site in the
// Stream-Instance and Last-Event-Seq request headers, the poll parks at
// the site until a step publishes, and the batch comes back, well
// before the poll's wait runs out, with the next position in the same
// two response headers.
func TestProxyStreamsLongPollThroughRelay(t *testing.T) {
	c, _ := newStreamSite(t, 42, "boot-poll")
	api := controller.API(c)
	arrived := make(chan struct{}, 1)
	lc := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/rest/stream" {
			select {
			case arrived <- struct{}{}:
			default:
			}
		}
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(lc.Close)
	relay := newRelay(t, "", map[string]string{"home": lc.URL})

	seq := c.Stream().Seq()
	req, err := http.NewRequest(http.MethodGet, relay.URL+"/cc/sites/home/rest/stream?wait=5", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Stream-Instance", "boot-poll")
	req.Header.Set("Last-Event-Seq", strconv.FormatUint(seq, 10))
	type result struct {
		resp *http.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		done <- result{resp, err}
	}()
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the delta poll never reached the site")
	}

	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	var res result
	select {
	case res = <-done:
	case <-time.After(4 * time.Second):
		t.Fatal("the parked poll did not wake for the published batch")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	defer res.resp.Body.Close()
	if res.resp.StatusCode != http.StatusOK {
		t.Fatalf("poll through relay = %d, want 200", res.resp.StatusCode)
	}
	var b stream.Batch
	if err := json.NewDecoder(res.resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Events) == 0 || b.Through <= seq {
		t.Fatalf("batch through relay = %+v, want the step's events after seq %d", b, seq)
	}
	if got, want := res.resp.Header.Get("Last-Event-Seq"), strconv.FormatUint(b.Through, 10); got != want {
		t.Errorf("Last-Event-Seq through relay = %q, want %q", got, want)
	}
	if got := res.resp.Header.Get("Stream-Instance"); got != "boot-poll" {
		t.Errorf("Stream-Instance through relay = %q, want boot-poll", got)
	}
}
