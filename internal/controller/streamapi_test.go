package controller

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/imcf/imcf/internal/firewall"
	"github.com/imcf/imcf/internal/rules"
	"github.com/imcf/imcf/internal/stream"
)

func streamServer(t *testing.T) (*Controller, *httptest.Server, *stream.Hub) {
	t.Helper()
	hub := stream.NewHub("test-boot", 64)
	c, srv := apiServer(t, func(cfg *Config) { cfg.Stream = hub })
	return c, srv, hub
}

func TestStreamDisabledIs404(t *testing.T) {
	_, srv := apiServer(t, nil)
	if code := getJSON(t, srv.URL+"/rest/stream/snapshot", nil); code != http.StatusNotFound {
		t.Fatalf("snapshot without hub = %d", code)
	}
	if code := getJSON(t, srv.URL+"/rest/stream?wait=0", nil); code != http.StatusNotFound {
		t.Fatalf("stream without hub = %d", code)
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
	// The streamed plan is the report the API serves.
	var want, got StepReport
	if code := getJSON(t, srv.URL+"/rest/plan", &want); code != http.StatusOK {
		t.Fatal("no last plan")
	}
	for _, ev := range b.Events {
		if ev.Kind == stream.KindPlan {
			if err := json.Unmarshal(ev.Data, &got); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got.Time != want.Time || got.Energy != want.Energy || len(got.Executed) != len(want.Executed) {
		t.Fatalf("streamed plan %+v != served plan %+v", got, want)
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

func TestFinishStepCoalescesFirewallProgramming(t *testing.T) {
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
