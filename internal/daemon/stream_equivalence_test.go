package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/client"
	"github.com/imcf/imcf/internal/controller"
	"github.com/imcf/imcf/internal/simclock"
	"github.com/imcf/imcf/internal/stream"
)

// The stream-equivalence harness is the delta-sync protocol's proof
// obligation (DESIGN.md §16): a mirror maintained incrementally over
// the stream — snapshot once, then coalesced deltas — must be
// BIT-IDENTICAL to a mirror rebuilt from scratch by polling the plain
// REST read surfaces, and both to the tenant controller's in-memory
// state marshalled in-process, cycle after cycle, for every tenant of a
// fleet, across dropped connections and across a daemon restart. The
// in-memory reference is what keeps the harness independent of the
// hub: GET /rest/mrt and GET /rest/plan serve the hub's own bytes. The sync
// path goes through a chaos proxy that slams the TCP connection on
// every other delta poll, so resume-after-disconnect is exercised
// constantly; the snapshot counters then prove those disconnects were
// absorbed by resume, never by a re-snapshot. A daemon restart mints
// new hub instances, forcing exactly one resync per tenant.

// streamEquivTenants is the fleet hosted by the harness daemon.
var streamEquivTenants = []TenantSpec{
	{ID: "alpha", Residence: "prototype", Seed: 7, WeeklyBudgetKWh: 165},
	{ID: "bravo", Residence: "flat", Seed: 1001, WeeklyBudgetKWh: 90},
	{ID: "charlie", Residence: "house", Seed: 1002, WeeklyBudgetKWh: 300},
	{ID: "delta", Residence: "prototype", Seed: 1003, WeeklyBudgetKWh: 120},
}

// streamChaos fronts the daemon for the sync clients: it forwards to
// whatever base URL is installed (swappable across a daemon restart),
// counts snapshot fetches per tenant, and kills every other delta poll
// at the TCP level before it reaches the daemon — the SDK's transport
// retry must resume seamlessly from the mirror's position.
type streamChaos struct {
	target atomic.Value // string: "http://host:port"
	polls  atomic.Int64
	kills  atomic.Int64

	mu    sync.Mutex
	snaps map[string]int
}

func (c *streamChaos) snapshots(tenant string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snaps[tenant]
}

func (c *streamChaos) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case strings.HasSuffix(r.URL.Path, "/rest/stream/snapshot"):
		c.mu.Lock()
		if c.snaps == nil {
			c.snaps = make(map[string]int)
		}
		c.snaps[tenantOfPath(r.URL.Path)]++
		c.mu.Unlock()
	case strings.HasSuffix(r.URL.Path, "/rest/stream"):
		if c.polls.Add(1)%2 == 1 {
			c.kills.Add(1)
			panic(http.ErrAbortHandler) // slam the connection mid-protocol
		}
	}
	u, err := url.Parse(c.target.Load().(string))
	if err != nil {
		panic(err)
	}
	httputil.NewSingleHostReverseProxy(u).ServeHTTP(w, r)
}

// tenantOfPath extracts <id> from /t/<id>/rest/....
func tenantOfPath(path string) string {
	rest := strings.TrimPrefix(path, "/t/")
	if i := strings.IndexByte(rest, '/'); i > 0 {
		return rest[:i]
	}
	return rest
}

// newStreamEquivDaemon boots (or reboots) the harness fleet over the
// same on-disk state.
func newStreamEquivDaemon(t *testing.T, dir string, workers int, clk *simclock.SimClock) *Daemon {
	t.Helper()
	d, err := New(Options{
		Addr:         "127.0.0.1:0",
		Tenants:      streamEquivTenants,
		FleetWorkers: workers,
		StoreDir:     filepath.Join(dir, "store"),
		StoreBackend: "wal",
		PersistDir:   filepath.Join(dir, "persist"),
		Clock:        clk,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("fleet daemon: %v", err)
	}
	d.Start()
	return d
}

// memoryMirror renders a controller's in-memory MRT, last plan and
// firewall block set, marshalled here, as a mirror: the reference that
// reads no hub bytes.
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

// assertMirrorsConverge syncs every tenant's long-lived mirror (through
// the chaos proxy), rebuilds a fresh poll mirror (directly against the
// daemon) and renders the tenant controller's memory, then compares
// canonical bytes.
func assertMirrorsConverge(t *testing.T, label string, d *Daemon, syncClients map[string]*client.Client,
	pollClients map[string]*client.Client, mirrors map[string]*stream.Mirror) {
	t.Helper()
	ctx := context.Background()
	for _, spec := range streamEquivTenants {
		if err := syncClients[spec.ID].Sync(ctx, mirrors[spec.ID]); err != nil {
			t.Fatalf("%s: tenant %s: sync: %v", label, spec.ID, err)
		}
		polled, err := pollClients[spec.ID].PollMirror(ctx)
		if err != nil {
			t.Fatalf("%s: tenant %s: poll: %v", label, spec.ID, err)
		}
		want := memoryMirror(t, d.Tenant(spec.ID).Controller()).Canonical()
		if got := mirrors[spec.ID].Canonical(); !bytes.Equal(got, want) {
			t.Errorf("%s: tenant %s: sync-maintained mirror diverged from controller memory:\n  sync:   %s\n  memory: %s",
				label, spec.ID, got, want)
		}
		if got := polled.Canonical(); !bytes.Equal(got, want) {
			t.Errorf("%s: tenant %s: poll-built mirror diverged from controller memory:\n  poll:   %s\n  memory: %s",
				label, spec.ID, got, want)
		}
	}
}

// TestStreamEquivalence is the delta-sync headline gate.
func TestStreamEquivalence(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			clk := simclock.NewSimClock(equivStart)
			d := newStreamEquivDaemon(t, dir, workers, clk)

			chaos := &streamChaos{}
			chaos.target.Store("http://" + d.APIAddr())
			front := httptest.NewServer(chaos)
			t.Cleanup(front.Close)

			syncClients := make(map[string]*client.Client)
			pollClients := make(map[string]*client.Client)
			mirrors := make(map[string]*stream.Mirror)
			for _, spec := range streamEquivTenants {
				sc, err := client.New(front.URL+"/t/"+spec.ID, nil)
				if err != nil {
					t.Fatal(err)
				}
				pc, err := client.New("http://"+d.APIAddr()+"/t/"+spec.ID, nil)
				if err != nil {
					t.Fatal(err)
				}
				syncClients[spec.ID] = sc
				pollClients[spec.ID] = pc
				mirrors[spec.ID] = stream.NewMirror()
			}

			// Phase 1: planning cycles with an MRT edit halfway — every
			// cycle, sync must equal poll, tenant by tenant.
			const cycles = 6
			ctx := context.Background()
			for cycle := 0; cycle < cycles; cycle++ {
				if cycle == cycles/2 {
					for _, spec := range streamEquivTenants {
						mutateMRT(t, d, spec.ID, 1)
					}
				}
				if err := d.Fleet().Cycle(ctx); err != nil {
					t.Fatalf("cycle %d: %v", cycle, err)
				}
				clk.Advance(time.Hour)
				assertMirrorsConverge(t, fmt.Sprintf("cycle %d", cycle), d, syncClients, pollClients, mirrors)
			}

			// The chaos proxy really did drop connections, and every drop
			// was absorbed by resuming — one snapshot per tenant, total.
			if chaos.kills.Load() == 0 {
				t.Fatal("chaos proxy killed nothing — the disconnect path went unexercised")
			}
			for _, spec := range streamEquivTenants {
				if n := chaos.snapshots(spec.ID); n != 1 {
					t.Errorf("tenant %s fetched %d snapshots before the restart, want exactly 1 (disconnects must resume, not resync)",
						spec.ID, n)
				}
			}

			// Phase 2: daemon restart. New process, new hub instances;
			// each mirror's next sync answers 409, re-snapshots once, and
			// converges again over the restored state.
			if err := d.Close(); err != nil {
				t.Fatalf("close daemon: %v", err)
			}
			d2 := newStreamEquivDaemon(t, dir, workers, clk)
			defer d2.Close() //nolint:errcheck
			chaos.target.Store("http://" + d2.APIAddr())
			for _, spec := range streamEquivTenants {
				pc, err := client.New("http://"+d2.APIAddr()+"/t/"+spec.ID, nil)
				if err != nil {
					t.Fatal(err)
				}
				pollClients[spec.ID] = pc
			}

			assertMirrorsConverge(t, "post-restart", d2, syncClients, pollClients, mirrors)
			for cycle := 0; cycle < 2; cycle++ {
				if err := d2.Fleet().Cycle(ctx); err != nil {
					t.Fatalf("post-restart cycle %d: %v", cycle, err)
				}
				clk.Advance(time.Hour)
				assertMirrorsConverge(t, fmt.Sprintf("post-restart cycle %d", cycle), d2, syncClients, pollClients, mirrors)
			}
			for _, spec := range streamEquivTenants {
				if n := chaos.snapshots(spec.ID); n != 2 {
					t.Errorf("tenant %s fetched %d snapshots in total, want exactly 2 (one boot, one restart resync)",
						spec.ID, n)
				}
			}
		})
	}
}
