package cloud

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
)

// TestAllocsTraceRelayProxy pins the proxy's copy path: a 4 KiB JSON
// body proxied through a real relay from a real upstream costs the
// whole process — client, relay and upstream — less than the 32 KiB
// copy buffer net/http's ReadFrom path allocated per response. check.sh
// gates on this (go test -run AllocsTrace).
func TestAllocsTraceRelayProxy(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of its puts under -race; check.sh runs this gate without it")
	}
	body := append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), 4096-10)...)
	body = append(body, `"}`...)
	lc := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body) //nolint:errcheck // test upstream
	}))
	t.Cleanup(lc.Close)
	relay := newRelay(t, "", map[string]string{"home": lc.URL})
	client := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(client.CloseIdleConnections)
	get := func() {
		resp, err := client.Get(relay.URL + "/cc/sites/home/rest/items")
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || n != int64(len(body)) || resp.StatusCode != http.StatusOK {
			t.Fatalf("proxied GET = %d, %d bytes, %v; want 200 and %d bytes", resp.StatusCode, n, err, len(body))
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 20; i++ {
		get()
	}
	const requests = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	perReq := (after.TotalAlloc - before.TotalAlloc) / requests
	t.Logf("%d B allocated per proxied request", perReq)
	if perReq >= 32<<10 {
		t.Fatalf("a proxied 4 KiB response allocates %d B, want under %d", perReq, 32<<10)
	}
}
