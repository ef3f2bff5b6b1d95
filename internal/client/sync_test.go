package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/controller"
	"github.com/imcf/imcf/internal/simclock"
	"github.com/imcf/imcf/internal/stream"
)

// bootStream is boot with a decision-stream hub of known instance
// wired in.
func bootStream(t *testing.T) (*controller.Controller, *Client, *simclock.SimClock) {
	t.Helper()
	hub := stream.NewHub("boot-a", 64)
	return boot(t, func(cfg *controller.Config) { cfg.Stream = hub })
}

// memoryMirror is the reference that reads no hub bytes: the
// controller's in-memory MRT, last plan and firewall block set,
// marshalled here. GET /rest/mrt and GET /rest/plan serve the hub's
// stored bytes, so a poll-built mirror alone could not catch a hub
// that drifted from the controller.
func memoryMirror(t *testing.T, ctl *controller.Controller) *stream.Mirror {
	t.Helper()
	m := stream.NewMirror()
	set := func(kind stream.Kind, v any) {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Set("", kind, data); err != nil {
			t.Fatal(err)
		}
	}
	set(stream.KindMRT, ctl.MRT())
	if last, ok := ctl.LastStep(); ok {
		set(stream.KindPlan, last)
	}
	set(stream.KindFirewall, ctl.Firewall().Rules())
	return m
}

// assertMirrorsEqual fails unless every mirror renders the controller's
// in-memory state byte for byte.
func assertMirrorsEqual(t *testing.T, ctl *controller.Controller, mirrors map[string]*stream.Mirror) {
	t.Helper()
	want := memoryMirror(t, ctl).Canonical()
	for name, m := range mirrors {
		if got := m.Canonical(); !bytes.Equal(got, want) {
			t.Fatalf("%s mirror\n  %s\n!= controller memory\n  %s", name, got, want)
		}
	}
}

func TestSyncMirrorMatchesPoll(t *testing.T) {
	ctl, cl, _ := bootStream(t)
	if _, err := ctl.Step(); err != nil {
		t.Fatal(err)
	}
	m := stream.NewMirror()
	if err := cl.Sync(ctx, m); err != nil {
		t.Fatal(err)
	}
	polled, err := cl.PollMirror(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertMirrorsEqual(t, ctl, map[string]*stream.Mirror{"sync": m, "poll": polled})
	// A second Sync is incremental (delta poll) and stays identical.
	if _, err := ctl.Step(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Sync(ctx, m); err != nil {
		t.Fatal(err)
	}
	polled2, err := cl.PollMirror(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertMirrorsEqual(t, ctl, map[string]*stream.Mirror{"incremental sync": m, "poll": polled2})
}

func TestSyncBeforeFirstPlanMatchesPoll(t *testing.T) {
	ctl, cl, _ := bootStream(t)
	m := stream.NewMirror()
	if err := cl.Sync(ctx, m); err != nil {
		t.Fatal(err)
	}
	polled, err := cl.PollMirror(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertMirrorsEqual(t, ctl, map[string]*stream.Mirror{"pre-plan sync": m, "pre-plan poll": polled})
}

func TestWatchFollowsSteps(t *testing.T) {
	ctl, cl, _ := bootStream(t)
	ctxw, cancel := context.WithCancel(ctx)
	defer cancel()
	updates := make(chan struct{}, 16)
	w := cl.Watch(ctxw, WatchOptions{
		Wait:     2 * time.Second,
		OnUpdate: func() { updates <- struct{}{} },
	})
	waitUpdate(t, updates) // initial snapshot
	if _, err := ctl.Step(); err != nil {
		t.Fatal(err)
	}
	waitUpdate(t, updates) // the step's delta batch
	var report controller.StepReport
	ok, err := w.Mirror().Decode("", stream.KindPlan, &report)
	if err != nil || !ok {
		t.Fatalf("mirror plan = %v, %v", ok, err)
	}
	want, _ := ctl.LastStep()
	if !report.Time.Equal(want.Time) {
		t.Fatalf("mirror plan time %v != %v", report.Time, want.Time)
	}
	cancel()
	<-w.Done()
	if w.Err() == nil {
		t.Fatal("stopped watcher reports no error")
	}
}

func waitUpdate(t *testing.T, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("no mirror update arrived")
	}
}

// chokepoint kills the TCP connection of every other delta request —
// the "connection dies at every delta boundary" adversary. Snapshot
// fetches are counted, everything else passes through untouched.
type chokepoint struct {
	inner     http.Handler
	snapshots atomic.Int64
	mu        sync.Mutex
	kill      bool // next delta request dies before answering
}

func (cp *chokepoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/rest/stream/snapshot") {
		cp.snapshots.Add(1)
	}
	if !strings.HasPrefix(r.URL.Path, "/rest/stream") || strings.HasSuffix(r.URL.Path, "/snapshot") {
		cp.inner.ServeHTTP(w, r)
		return
	}
	cp.mu.Lock()
	kill := cp.kill
	cp.kill = !cp.kill
	cp.mu.Unlock()
	if kill {
		// Slam the connection so the client sees a transport error, not
		// a clean HTTP response.
		panic(http.ErrAbortHandler)
	}
	cp.inner.ServeHTTP(w, r)
}

func TestWatchResumesAcrossKilledConnections(t *testing.T) {
	hub := stream.NewHub("boot-kill", 256)
	ctl, _, _ := boot(t, func(cfg *controller.Config) { cfg.Stream = hub })
	cp := &chokepoint{inner: controller.API(ctl)}
	srv := httptest.NewServer(cp)
	t.Cleanup(srv.Close)
	cl, err := New(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}

	ctxw, cancel := context.WithCancel(ctx)
	defer cancel()
	updates := make(chan struct{}, 64)
	w := cl.Watch(ctxw, WatchOptions{
		Wait:     2 * time.Second,
		OnUpdate: func() { updates <- struct{}{} },
	})
	waitUpdate(t, updates)

	// Every step publishes deltas; between each, the chokepoint kills
	// the next poll's connection, forcing a reconnect that must resume
	// from Last-Event-Seq — never a re-snapshot, never a gap.
	const steps = 5
	for i := 0; i < steps; i++ {
		if _, err := ctl.Step(); err != nil {
			t.Fatal(err)
		}
		waitUpdate(t, updates)
	}
	// The mirror converged to the hub's exact state, which is the
	// controller's.
	ref := stream.NewMirror()
	ref.ApplySnapshot(hub.Snapshot())
	deadline := time.Now().Add(5 * time.Second)
	for !bytes.Equal(w.Mirror().Canonical(), ref.Canonical()) {
		if time.Now().After(deadline) {
			t.Fatalf("mirror never converged:\n  %s\nwant:\n  %s",
				w.Mirror().Canonical(), ref.Canonical())
		}
		time.Sleep(5 * time.Millisecond)
	}
	assertMirrorsEqual(t, ctl, map[string]*stream.Mirror{"watcher": w.Mirror(), "hub snapshot": ref})
	// Resume stayed seamless: the mirror still tracks the original
	// instance at the hub's sequence, and every reconnect resumed via
	// Last-Event-Seq — the one snapshot served is the initial connect.
	instance, seq := w.Mirror().Position()
	if instance != "boot-kill" || seq != hub.Seq() {
		t.Fatalf("mirror position = %q/%d, hub at %d", instance, seq, hub.Seq())
	}
	if n := cp.snapshots.Load(); n != 1 {
		t.Fatalf("killed connections forced %d snapshots, want exactly 1 (seamless resume)", n)
	}
	cancel()
	<-w.Done()
}

func TestGetConditional(t *testing.T) {
	ctl, cl, _ := bootStream(t)
	if _, err := ctl.Step(); err != nil {
		t.Fatal(err)
	}
	body, etag, notMod, err := cl.GetConditional(ctx, "/rest/mrt", "")
	if err != nil || notMod || len(body) == 0 || etag == "" {
		t.Fatalf("first conditional GET = %v %q %v %v", len(body), etag, notMod, err)
	}
	body2, etag2, notMod2, err := cl.GetConditional(ctx, "/rest/mrt", etag)
	if err != nil || !notMod2 || body2 != nil || etag2 != etag {
		t.Fatalf("revalidation = %v %q %v %v", len(body2), etag2, notMod2, err)
	}
}

func TestMirrorAccessors(t *testing.T) {
	ctl, cl, _ := bootStream(t)
	if _, err := ctl.Step(); err != nil {
		t.Fatal(err)
	}
	m := stream.NewMirror()
	if err := cl.Sync(ctx, m); err != nil {
		t.Fatal(err)
	}
	if raw, ok := MirrorMRT(m); !ok || len(raw) == 0 {
		t.Fatal("mirror has no MRT")
	}
	rules, err := MirrorFirewallRules(m)
	if err != nil {
		t.Fatal(err)
	}
	want := ctl.Firewall().Rules()
	if len(rules) != len(want) {
		t.Fatalf("mirror rules %v != firewall rules %v", rules, want)
	}
}

// countingTransport counts the requests and response-body bytes that
// cross one client's transport.
type countingTransport struct {
	requests atomic.Int64
	bytes    atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	resp, err := http.DefaultTransport.RoundTrip(req)
	if resp != nil && resp.Body != nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

// take returns the counts so far and resets them.
func (t *countingTransport) take() (requests, bytes int64) {
	return t.requests.Swap(0), t.bytes.Swap(0)
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// countedClient is a client of cl's controller whose transport counts.
func countedClient(t *testing.T, cl *Client) (*Client, *countingTransport) {
	t.Helper()
	ct := &countingTransport{}
	c, err := New(cl.base, &http.Client{Transport: ct})
	if err != nil {
		t.Fatal(err)
	}
	return c, ct
}

// TestSyncRequestCounts prices the cloud↔edge sync protocols in
// requests and body bytes. With unchanged state, polling costs three
// full-body GETs per tick, conditional GETs revalidate with empty 304
// bodies after the first tick, and a watcher costs its snapshot plus
// one parked long poll however many ticks pass. With a planning cycle
// per tick, catching up costs polling three GETs and Sync one delta
// poll, and moves fewer body bytes. Every replica stays identical.
func TestSyncRequestCounts(t *testing.T) {
	const ticks, steps = 5, 3
	ctl, cl, clock := bootStream(t)
	if _, err := ctl.Step(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	poller, pollCT := countedClient(t, cl)
	revalidator, etagCT := countedClient(t, cl)
	syncer, syncCT := countedClient(t, cl)

	// Steady state: the watcher snapshots, then parks one long poll
	// that outlasts the test.
	ctxw, cancel := context.WithCancel(ctx)
	defer cancel()
	updates := make(chan struct{}, 16)
	w := syncer.Watch(ctxw, WatchOptions{Wait: stream.MaxWait, OnUpdate: func() { updates <- struct{}{} }})
	waitUpdate(t, updates)
	deadline := time.Now().Add(5 * time.Second)
	for syncCT.requests.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	pollMirror := stream.NewMirror()
	for tick := 0; tick < ticks; tick++ {
		if err := poller.PollInto(ctx, pollMirror); err != nil {
			t.Fatal(err)
		}
	}
	paths := []string{"/rest/mrt", "/rest/plan", "/rest/firewall?rules=only"}
	etags := make(map[string]string)
	var firstTickBytes int64
	for tick := 0; tick < ticks; tick++ {
		for _, path := range paths {
			_, tag, _, err := revalidator.GetConditional(ctx, path, etags[path])
			if err != nil {
				t.Fatal(err)
			}
			etags[path] = tag
		}
		if tick == 0 {
			firstTickBytes = etagCT.bytes.Load()
		}
	}
	pollReqs, pollBytes := pollCT.take()
	etagReqs, etagBytes := etagCT.take()
	syncReqs, _ := syncCT.take()
	if pollReqs != 3*ticks || etagReqs != 3*ticks {
		t.Errorf("steady requests: poll %d, etag %d, want %d each", pollReqs, etagReqs, 3*ticks)
	}
	if syncReqs != 2 {
		t.Errorf("steady watcher requests = %d, want 2 (snapshot + one parked long poll)", syncReqs)
	}
	if etagBytes != firstTickBytes || etagBytes >= pollBytes {
		t.Errorf("etag body bytes = %d (first tick %d), poll %d: revalidations moved bodies",
			etagBytes, firstTickBytes, pollBytes)
	}
	assertMirrorsEqual(t, ctl, map[string]*stream.Mirror{"steady poll": pollMirror, "steady watcher": w.Mirror()})
	syncMirror := w.Mirror()
	cancel()
	<-w.Done()
	syncCT.take()

	// Changing state: one planning cycle per tick.
	for step := 0; step < steps; step++ {
		if _, err := ctl.Step(); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Hour)
		if err := poller.PollInto(ctx, pollMirror); err != nil {
			t.Fatal(err)
		}
		if err := syncer.Sync(ctx, syncMirror); err != nil {
			t.Fatal(err)
		}
		assertMirrorsEqual(t, ctl, map[string]*stream.Mirror{
			fmt.Sprintf("step %d poll", step): pollMirror,
			fmt.Sprintf("step %d sync", step): syncMirror,
		})
	}
	pollReqs, pollBytes = pollCT.take()
	syncReqs, syncBytes := syncCT.take()
	if pollReqs != 3*steps || syncReqs != steps {
		t.Errorf("changing requests: poll %d, sync %d, want %d and %d", pollReqs, syncReqs, 3*steps, steps)
	}
	if syncBytes >= pollBytes {
		t.Errorf("changing sync body bytes %d not below poll %d", syncBytes, pollBytes)
	}
}

// flakyStream serves a bare hub's stream and answers 503 to every other
// delta poll. Before each poll it lets through, it publishes one event,
// so every watcher session applies exactly one batch and then fails. It
// records the gap between each 503 and the next delta poll: the
// watcher's reconnect delay.
type flakyStream struct {
	hub  *stream.Hub
	mux  *http.ServeMux
	mu   sync.Mutex
	fail bool      // the next delta poll answers 503
	shed time.Time // when the last 503 went out; zero once the watcher is back
	n    int       // events published
	gaps []time.Duration
}

func newFlakyStream() *flakyStream {
	f := &flakyStream{hub: stream.NewHub("flaky", 64), mux: http.NewServeMux()}
	f.mux.Handle("/rest/stream/snapshot", f.hub.SnapshotHandler())
	f.mux.Handle("/rest/stream", f.hub.DeltaHandler())
	return f
}

func (f *flakyStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/rest/stream" {
		f.mux.ServeHTTP(w, r)
		return
	}
	f.mu.Lock()
	now := time.Now()
	if !f.shed.IsZero() {
		f.gaps = append(f.gaps, now.Sub(f.shed))
		f.shed = time.Time{}
	}
	fail := f.fail
	f.fail = !f.fail
	if fail {
		f.shed = now
	} else {
		f.n++
		if _, err := f.hub.Publish("", stream.KindPlan, []byte(fmt.Sprintf(`{"n":%d}`, f.n))); err != nil {
			f.mu.Unlock()
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	f.mu.Unlock()
	if fail {
		http.Error(w, "shedding load", http.StatusServiceUnavailable)
		return
	}
	f.mux.ServeHTTP(w, r)
}

func (f *flakyStream) reconnects() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.gaps)
}

// TestWatchBackoffResetsAfterProgress: the watcher's backoff counts
// consecutive failed sessions only. Every other delta poll fails, but
// every session in between applies a batch, so each reconnect waits
// the first backoff step (at most 10 ms), not a delay that grows with
// the watcher's age. From the eighth reconnect on, a backoff that never
// reset would wait at least backoff(8)'s floor of 640 ms.
func TestWatchBackoffResetsAfterProgress(t *testing.T) {
	const reconnects = 12
	floor := backoffBase << 7 / 2 // backoff(8) is jittered into [floor, 2*floor]
	f := newFlakyStream()
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)
	cl, err := New(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctxw, cancel := context.WithCancel(ctx)
	w := cl.Watch(ctxw, WatchOptions{Wait: 2 * time.Second})
	defer func() {
		cancel()
		<-w.Done()
	}()

	var gaps []time.Duration
	for deadline := time.Now().Add(30 * time.Second); len(gaps) < reconnects; gaps = f.reconnects() {
		if time.Now().After(deadline) {
			t.Fatalf("only %d reconnects in 30s: %v", len(gaps), gaps)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 7; i < len(gaps); i++ {
		if gaps[i] >= floor {
			t.Fatalf("reconnect %d waited %v although every session applied a batch, want under %v (gaps %v)",
				i+1, gaps[i], floor, gaps)
		}
	}
	if _, seq := w.Mirror().Position(); seq == 0 {
		t.Fatal("the watcher applied no batch")
	}
}
