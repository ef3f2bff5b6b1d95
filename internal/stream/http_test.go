package stream

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func newServedHub(t *testing.T) (*Hub, *httptest.Server) {
	t.Helper()
	h := NewHub("boot-http", 32)
	t.Cleanup(h.Close)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /rest/stream/snapshot", h.SnapshotHandler())
	mux.HandleFunc("GET /rest/stream", h.DeltaHandler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return h, srv
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestSnapshotHandler(t *testing.T) {
	h, srv := newServedHub(t)
	mustPublish(t, h, "", KindMRT, json.RawMessage(`{"rules":[]}`))
	var snap Snapshot
	if code := getJSON(t, srv.URL+"/rest/stream/snapshot", &snap); code != http.StatusOK {
		t.Fatalf("snapshot = %d", code)
	}
	if snap.Instance != "boot-http" || snap.Seq != 1 {
		t.Errorf("snapshot coordinates = %q/%d", snap.Instance, snap.Seq)
	}
	if string(snap.State["mrt"]) != `{"rules":[]}` {
		t.Errorf("snapshot state = %s", snap.State["mrt"])
	}
}

func TestDeltaHandlerImmediatePoll(t *testing.T) {
	h, srv := newServedHub(t)
	mustPublish(t, h, "", KindMRT, json.RawMessage(`1`))
	mustPublish(t, h, "", KindPlan, json.RawMessage(`2`))

	// Resume from 1: one delta, headers carry the new position.
	resp, err := http.Get(srv.URL + "/rest/stream?instance=boot-http&seq=1&wait=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Last-Event-Seq"); got != "2" {
		t.Errorf("Last-Event-Seq = %q", got)
	}
	if got := resp.Header.Get("Stream-Instance"); got != "boot-http" {
		t.Errorf("Stream-Instance = %q", got)
	}
	var b Batch
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 1 || b.Events[0].Kind != KindPlan {
		t.Errorf("batch = %+v", b)
	}
}

func TestDeltaHandlerHeaderResume(t *testing.T) {
	h, srv := newServedHub(t)
	mustPublish(t, h, "", KindMRT, json.RawMessage(`1`))
	mustPublish(t, h, "", KindMRT, json.RawMessage(`2`))

	// Resume coordinates via headers: Last-Event-Seq is the position,
	// Stream-Instance names the producer lifetime. The response carries
	// the next position in the same two headers.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/rest/stream?wait=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Stream-Instance", "boot-http")
	req.Header.Set("Last-Event-Seq", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b Batch
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 1 || string(b.Events[0].Data) != "2" {
		t.Errorf("header-resumed batch = %+v", b)
	}
	if seq, inst := resp.Header.Get("Last-Event-Seq"), resp.Header.Get("Stream-Instance"); seq != "2" || inst != "boot-http" {
		t.Errorf("resume headers = Last-Event-Seq %q, Stream-Instance %q; want 2, boot-http", seq, inst)
	}
}

func TestDeltaHandlerDefaultsToCurrentPosition(t *testing.T) {
	h, srv := newServedHub(t)
	mustPublish(t, h, "", KindMRT, json.RawMessage(`1`))
	// No coordinates at all: "from now on" — an empty batch at the
	// hub's position.
	var b Batch
	if code := getJSON(t, srv.URL+"/rest/stream?wait=0", &b); code != http.StatusOK {
		t.Fatalf("bare poll = %d", code)
	}
	if b.Through != 1 || len(b.Events) != 0 {
		t.Errorf("bare poll batch = %+v", b)
	}
}

func TestDeltaHandlerLongPollWakes(t *testing.T) {
	h, srv := newServedHub(t)
	mustPublish(t, h, "", KindMRT, json.RawMessage(`1`))

	done := make(chan Batch, 1)
	go func() {
		var b Batch
		getJSON(t, srv.URL+"/rest/stream?instance=boot-http&seq=1&wait=30", &b)
		done <- b
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park
	mustPublish(t, h, "", KindPlan, json.RawMessage(`2`))
	select {
	case b := <-done:
		if len(b.Events) != 1 || b.Events[0].Kind != KindPlan {
			t.Errorf("woken batch = %+v", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll never woke on publish")
	}
}

func TestDeltaHandlerBadRequests(t *testing.T) {
	h, srv := newServedHub(t)
	mustPublish(t, h, "", KindMRT, json.RawMessage(`1`))
	for _, q := range []string{"seq=banana", "seq=1&wait=banana", "seq=1&wait=-3"} {
		if code := getJSON(t, srv.URL+"/rest/stream?instance=boot-http&"+q, nil); code != http.StatusBadRequest {
			t.Errorf("?%s = %d, want 400", q, code)
		}
	}
}

func TestDeltaHandlerResync(t *testing.T) {
	h, srv := newServedHub(t)
	mustPublish(t, h, "", KindMRT, json.RawMessage(`1`))
	resp, err := http.Get(srv.URL + "/rest/stream?instance=other-boot&seq=1&wait=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("foreign instance = %d, want 409", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["resync"] != "snapshot" {
		t.Errorf("resync cue missing: %v", body)
	}
}

func TestParseWaitClampsToMax(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/rest/stream?wait=9999", nil)
	d, err := parseWait(r)
	if err != nil || d != MaxWait {
		t.Errorf("wait=9999 → (%v, %v), want (%v, nil)", d, err, MaxWait)
	}
	r = httptest.NewRequest(http.MethodGet, "/rest/stream", nil)
	if d, err := parseWait(r); err != nil || d != DefaultWait {
		t.Errorf("absent wait → (%v, %v), want (%v, nil)", d, err, DefaultWait)
	}
}
