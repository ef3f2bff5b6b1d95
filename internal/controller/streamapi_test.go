package controller

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/firewall"
	"github.com/imcf/imcf/internal/home"
	"github.com/imcf/imcf/internal/rules"
	"github.com/imcf/imcf/internal/simclock"
	"github.com/imcf/imcf/internal/stream"
)

func streamServer(t *testing.T) (*Controller, *httptest.Server, *stream.Hub) {
	t.Helper()
	hub := stream.NewHub("test-boot", 64)
	c, srv := apiServer(t, func(cfg *Config) { cfg.Stream = hub })
	return c, srv, hub
}

// TestStreamDefaultHub: a controller built without Config.Stream still
// streams, on a hub of its own with a freshly minted instance token,
// and versions its reads with that hub's ETags.
func TestStreamDefaultHub(t *testing.T) {
	c, srv := apiServer(t, nil)
	var snap stream.Snapshot
	if code := getJSON(t, srv.URL+"/rest/stream/snapshot", &snap); code != http.StatusOK {
		t.Fatalf("snapshot without a configured hub = %d", code)
	}
	if snap.Instance == "" || snap.Instance != c.Stream().Instance() || len(snap.State) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	var b stream.Batch
	url := srv.URL + "/rest/stream?wait=0&instance=" + snap.Instance + "&seq=" + itoa(snap.Seq)
	if code := getJSON(t, url, &b); code != http.StatusOK {
		t.Fatalf("delta poll without a configured hub = %d", code)
	}
	resp, err := http.Get(srv.URL + "/rest/mrt")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tag := resp.Header.Get("ETag"); !strings.HasPrefix(tag, `"`+snap.Instance+".") {
		t.Fatalf("GET /rest/mrt ETag = %q, want one of instance %s", tag, snap.Instance)
	}
	other := newController(t, nil)
	if other.Stream().Instance() == c.Stream().Instance() {
		t.Fatal("two default hubs share an instance token")
	}
}

func TestStreamSnapshotSeeded(t *testing.T) {
	_, srv, hub := streamServer(t)
	var snap stream.Snapshot
	if code := getJSON(t, srv.URL+"/rest/stream/snapshot", &snap); code != http.StatusOK {
		t.Fatalf("snapshot = %d", code)
	}
	// New seeds the MRT and the (empty) firewall set.
	if snap.Instance != "test-boot" || snap.Seq != hub.Seq() {
		t.Fatalf("snapshot position = %q/%d", snap.Instance, snap.Seq)
	}
	for _, key := range []string{"mrt", "firewall"} {
		if _, ok := snap.State[key]; !ok {
			t.Errorf("snapshot missing %q: %v", key, snap.State)
		}
	}
}

func TestStreamStepPublishesPlanAndFirewall(t *testing.T) {
	c, srv, hub := streamServer(t)
	seq := hub.Seq()
	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	var b stream.Batch
	url := srv.URL + "/rest/stream?wait=0&instance=test-boot&seq=" + itoa(seq)
	if code := getJSON(t, url, &b); code != http.StatusOK {
		t.Fatalf("delta poll = %d", code)
	}
	kinds := map[stream.Kind]bool{}
	for _, ev := range b.Events {
		kinds[ev.Kind] = true
	}
	if !kinds[stream.KindPlan] || !kinds[stream.KindFirewall] {
		t.Fatalf("step deltas = %+v", b.Events)
	}
	// The streamed plan and block set are the controller's in-memory
	// ones, marshalled here.
	last, ok := c.LastStep()
	if !ok {
		t.Fatal("no last plan")
	}
	wantPlan, err := json.Marshal(last)
	if err != nil {
		t.Fatal(err)
	}
	wantRules, err := json.Marshal(c.Firewall().Rules())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range b.Events {
		want := wantRules
		if ev.Kind == stream.KindPlan {
			want = wantPlan
		}
		if !bytes.Equal(ev.Data, want) {
			t.Errorf("streamed %s = %s, want %s", ev.Kind, ev.Data, want)
		}
	}
}

func TestStreamResyncOn409(t *testing.T) {
	_, srv, _ := streamServer(t)
	// Wrong instance: the producer "restarted".
	if code := getJSON(t, srv.URL+"/rest/stream?wait=0&instance=old-boot&seq=1", nil); code != http.StatusConflict {
		t.Fatalf("cross-instance poll = %d", code)
	}
	// A position ahead of the hub is equally unresumable.
	if code := getJSON(t, srv.URL+"/rest/stream?wait=0&instance=test-boot&seq=999", nil); code != http.StatusConflict {
		t.Fatalf("future poll = %d", code)
	}
	// Malformed positions are the client's fault, not a resync.
	if code := getJSON(t, srv.URL+"/rest/stream?wait=0&seq=nope", nil); code != http.StatusBadRequest {
		t.Fatalf("bad seq = %d", code)
	}
	if code := getJSON(t, srv.URL+"/rest/stream?wait=nope", nil); code != http.StatusBadRequest {
		t.Fatalf("bad wait = %d", code)
	}
}

func TestStreamETags(t *testing.T) {
	c, srv, _ := streamServer(t)
	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/rest/mrt", "/rest/plan", "/rest/firewall?rules=only"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		tag := resp.Header.Get("ETag")
		if resp.StatusCode != http.StatusOK || tag == "" {
			t.Fatalf("%s: status %d etag %q", path, resp.StatusCode, tag)
		}
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		req.Header.Set("If-None-Match", tag)
		resp2, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusNotModified {
			t.Fatalf("%s with matching If-None-Match = %d", path, resp2.StatusCode)
		}
	}
	// Changing the MRT rolls the ETag and revalidation misses.
	resp, err := http.Get(srv.URL + "/rest/mrt")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	oldTag := resp.Header.Get("ETag")
	mrt := c.MRT()
	if err := c.SetMRT(mrt); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/rest/mrt", nil)
	req.Header.Set("If-None-Match", oldTag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("stale If-None-Match = %d", resp2.StatusCode)
	}
	if resp2.Header.Get("ETag") == oldTag {
		t.Fatal("ETag did not roll with the MRT")
	}
}

func TestStreamSSEDeliversBatches(t *testing.T) {
	c, srv, hub := streamServer(t)
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/rest/stream?seq="+itoa(hub.Seq()), nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var id, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			var b stream.Batch
			if err := json.Unmarshal([]byte(data), &b); err != nil {
				t.Fatal(err)
			}
			if id != itoa(b.Through) {
				t.Fatalf("SSE id %s != batch through %d", id, b.Through)
			}
			if len(b.Events) == 0 {
				t.Fatal("empty SSE batch")
			}
			return
		}
	}
	t.Fatalf("no SSE batch arrived: %v", sc.Err())
}

func TestStreamSSEUnresumableIs409(t *testing.T) {
	_, srv, _ := streamServer(t)
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/rest/stream?instance=old-boot&seq=3", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unresumable SSE connect = %d", resp.StatusCode)
	}
}

func TestApplyCoalescesFirewallProgramming(t *testing.T) {
	fw := firewall.New()
	c, _ := apiServer(t, func(cfg *Config) { cfg.Firewall = fw })
	report, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	// Every dropped rule's device is blocked, every executed rule's is
	// not — same contract the per-rule programming had.
	for _, id := range report.Dropped {
		r, ok := findRule(c.MRT(), id)
		if !ok {
			t.Fatalf("dropped rule %s not in MRT", id)
		}
		dev, err := c.cfg.Residence.RuleDevice(r)
		if err != nil {
			t.Fatal(err)
		}
		if !fw.Blocked(dev.Addr) {
			t.Errorf("dropped rule %s device %s not blocked", id, dev.Addr)
		}
	}
	for _, id := range report.Executed {
		r, ok := findRule(c.MRT(), id)
		if !ok {
			t.Fatalf("executed rule %s not in MRT", id)
		}
		dev, err := c.cfg.Residence.RuleDevice(r)
		if err != nil {
			t.Fatal(err)
		}
		// A device may back several rules; only assert unblocked when no
		// dropped rule shares it (the block deliberately wins ties).
		shared := false
		for _, did := range report.Dropped {
			dr, _ := findRule(c.MRT(), did)
			ddev, err := c.cfg.Residence.RuleDevice(dr)
			if err == nil && ddev.Addr == dev.Addr {
				shared = true
			}
		}
		if !shared && fw.Blocked(dev.Addr) {
			t.Errorf("executed rule %s device %s blocked", id, dev.Addr)
		}
	}
}

func findRule(mrt rules.MRT, id string) (rules.MetaRule, bool) {
	for _, r := range mrt.Rules {
		if r.ID == id {
			return r, true
		}
	}
	return rules.MetaRule{}, false
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }

// TestPlanBodyMatchesETag races GETs of /rest/plan against planning
// steps: every response's body must be the plan published under its
// ETag's version. A body older than its ETag would let a client
// revalidate into 304s and keep a stale plan until the next step.
func TestPlanBodyMatchesETag(t *testing.T) {
	const steps = 3000
	clock := simclock.NewSimClock(winterNight)
	hub := stream.NewHub("etag-race", 0)
	c := newController(t, func(cfg *Config) {
		cfg.Clock = clock
		cfg.Stream = hub
	})
	api := API(c)
	etag := func(seq uint64) string { return `"etag-race.` + itoa(seq) + `"` }

	var mu sync.Mutex
	want := make(map[string]string, steps) // ETag → the plan body published under it
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < steps; i++ {
			seq := hub.Seq() + 1 // a step publishes its plan, then its block set
			report, err := c.Step()
			if err != nil {
				t.Error(err)
				return
			}
			body, err := json.Marshal(report)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			want[etag(seq)] = string(body) + "\n"
			mu.Unlock()
			clock.Advance(time.Hour)
		}
	}()

	type response struct{ etag, body string }
	seen := make(map[response]int)
	var seenMu sync.Mutex
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rr := httptest.NewRecorder()
				api.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/rest/plan", nil))
				if rr.Code == http.StatusNotFound {
					continue // no plan yet
				}
				resp := response{rr.Header().Get("ETag"), rr.Body.String()}
				seenMu.Lock()
				seen[resp]++
				seenMu.Unlock()
			}
		}()
	}
	readers.Wait()

	total, stale := 0, 0
	for resp, n := range seen {
		total += n
		if want[resp.etag] != resp.body {
			if stale == 0 {
				t.Errorf("ETag %s served body %s, want %s", resp.etag, resp.body, want[resp.etag])
			}
			stale += n
		}
	}
	if stale > 0 {
		t.Errorf("%d of %d responses paired a body with another plan's ETag", stale, total)
	}
	t.Logf("%d responses over %d steps", total, steps)
}

// TestReadsServeMemoryBytes: GET /rest/mrt and GET /rest/plan serve the
// hub's stored bytes, and those are, byte for byte, what json.Encoder
// makes of the controller's in-memory MRT() and LastStep() — over a
// day of steps (drops and their per-rule errors included) and for an
// empty table.
func TestReadsServeMemoryBytes(t *testing.T) {
	clock := simclock.NewSimClock(winterNight)
	c, srv := apiServer(t, func(cfg *Config) {
		cfg.Clock = clock
		cfg.WeeklyBudget = home.PrototypeWeeklyBudget / 4 // some hours drop rules
	})
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode == http.StatusOK && ct != "application/json" {
			t.Fatalf("GET %s content type = %q", path, ct)
		}
		return resp.StatusCode, string(body)
	}
	encoded := func(v any) string {
		t.Helper()
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if code, _ := get("/rest/plan"); code != http.StatusNotFound {
		t.Fatalf("GET /rest/plan before the first step = %d, want 404", code)
	}
	drops := 0
	for h := 0; h < 24; h++ {
		report, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		drops += len(report.Dropped)
		last, _ := c.LastStep()
		if code, body := get("/rest/plan"); code != http.StatusOK || body != encoded(last) {
			t.Fatalf("hour %d: GET /rest/plan = %d %s, want %s", h, code, body, encoded(last))
		}
		if code, body := get("/rest/mrt"); code != http.StatusOK || body != encoded(c.MRT()) {
			t.Fatalf("hour %d: GET /rest/mrt = %d %s, want %s", h, code, body, encoded(c.MRT()))
		}
		clock.Advance(time.Hour)
	}
	if drops == 0 {
		t.Fatal("no step dropped a rule; the per-rule error map went unchecked")
	}
	if err := c.SetMRT(rules.MRT{}); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/rest/mrt"); code != http.StatusOK || body != encoded(c.MRT()) {
		t.Fatalf("empty table: GET /rest/mrt = %d %s, want %s", code, body, encoded(c.MRT()))
	}
}
