// Package daemon assembles and serves a complete IMCF Local Controller
// process hosting one or many homes: per-tenant residence construction,
// optional durable store and measurement persistence (namespaced per
// tenant), optional HTTP device emulators, the fleet scheduler fanning
// interval-driven Energy Planner cycles over a bounded worker pool, the
// openHAB-style REST API (tenant-scoped under /t/{home}/, with the
// un-prefixed routes aliased to the default tenant), and the
// observability endpoints (/metrics, /healthz and the /debug/spans,
// /debug/exemplars, /debug/logs, /debug/decisions and /debug/trace/{id}
// read surfaces). A single-home daemon is a fleet of one: the same
// tenant and the same scheduler, differing only in its on-disk layout
// (see New).
//
// It is the testable core of cmd/imcfd: tests boot a Daemon on
// ephemeral ports (":0"), drive it over real HTTP, and inspect the
// bound addresses via APIAddr/MetricsAddr.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"github.com/imcf/imcf/internal/controller"
	"github.com/imcf/imcf/internal/faultfs"
	"github.com/imcf/imcf/internal/fleet"
	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/metrics"
	"github.com/imcf/imcf/internal/obs"
	"github.com/imcf/imcf/internal/simclock"
	"github.com/imcf/imcf/internal/store"
)

// DefaultJournalCap bounds the in-memory decision journal when Options
// leaves JournalCap at zero.
const DefaultJournalCap = journal.DefaultCap

// shutdownGrace bounds how long Close waits for in-flight requests to
// drain before force-closing the HTTP servers.
const shutdownGrace = 5 * time.Second

// Options configures a daemon. The zero value is not runnable: Addr and
// Residence are required.
type Options struct {
	// Addr is the REST API listen address (":0" for an ephemeral port).
	Addr string
	// MetricsAddr serves /metrics, /healthz, /debug/spans,
	// /debug/exemplars, /debug/logs, /debug/decisions and
	// /debug/trace/{id}; empty disables the observability listener.
	MetricsAddr string
	// Residence names the built-in layout: prototype, flat or house.
	Residence string
	// Seed parameterizes the residence's ambient traces.
	Seed uint64
	// Tenants declares the homes a multi-tenant daemon hosts; empty
	// means one tenant built from the fields above (ID DefaultTenantID,
	// no store prefix, PersistDir itself as its directory). The first
	// spec is the default tenant, which also serves the un-prefixed
	// routes and whose liveness /healthz reports; every tenant is served
	// under /t/<ID>/....
	Tenants []TenantSpec
	// FleetWorkers bounds how many tenants plan concurrently per fleet
	// cycle; <= 0 means 1 (sequential, the bit-identical reference
	// order).
	FleetWorkers int
	// StoreDir enables the KV store; empty disables it (except for the
	// mem backend, which needs no directory).
	StoreDir string
	// StoreBackend selects the storage engine: "wal" (default, the
	// single-log group-commit store) or "mem" (ephemeral, no disk).
	// With tenants, the one physical store is key-prefix-routed per
	// tenant.
	StoreBackend string
	// PersistDir enables measurement persistence; empty disables. With
	// tenants, each home persists under PersistDir/tenants/<id>.
	PersistDir string
	// MRTPath overrides the residence's Meta-Rule Table with a file in
	// the textual format (applied to every tenant).
	MRTPath string
	// Mode is EP (default when empty), IFTTT or manual.
	Mode string
	// Interval schedules a fleet cycle every Interval on Clock; <= 0
	// disables the schedule so tests can drive cycles explicitly over
	// /rest/plan/run or Fleet().Cycle.
	Interval time.Duration
	// WeeklyBudgetKWh is the weekly energy allowance.
	WeeklyBudgetKWh float64
	// Emulate starts loopback HTTP device emulators per tenant and
	// routes all actuation through them (and the firewall).
	Emulate bool
	// Clock overrides the wall clock (tests use simclock.NewSimClock).
	// The clock is a shared substrate: every tenant plans against the
	// same time source.
	Clock simclock.Clock
	// Binding overrides device actuation (ignored with Emulate; tests
	// inject failing bindings to exercise health reporting).
	Binding controller.Binding
	// JournalCap bounds each tenant's decision-provenance journal ring;
	// 0 means DefaultJournalCap. Every tenant journals; a negative
	// capacity is rejected.
	JournalCap int
	// FS overrides the file layer under the store and the decision
	// journal (tests inject faultfs fakes to exercise crash recovery
	// and degraded mode); nil uses the real filesystem.
	FS faultfs.FS
	// DebugAddr serves the debug mux — net/http/pprof and POST
	// /debug/flight — on its own listener. Empty disables it: the
	// profiling surface is opt-in (imcfd -debug-addr). /debug/logs is
	// on MetricsAddr.
	DebugAddr string
	// DiagnosticsDir enables the flight recorder: correlated diagnostic
	// bundles land under this directory on degraded-mode entry, SLO
	// page transitions, SIGQUIT and manual triggers. Empty disables the
	// recorder.
	DiagnosticsDir string
}

// Daemon is a fully wired Local Controller process hosting one or more
// tenants.
type Daemon struct {
	tenants []*Tenant          // sorted by ID — deterministic iteration
	byID    map[string]*Tenant // routing lookup
	def     *Tenant            // serves the un-prefixed routes; /healthz reports its liveness
	sched   *fleet.Scheduler
	clock   simclock.Clock
	store   store.Adapter // the one physical store every tenant writes through; nil without one

	faultMu sync.Mutex
	fault   error // the probe error that degraded the store; nil while it accepts writes

	slo      *obs.SLO
	recorder *obs.Recorder // nil without a diagnostics directory

	apiLn     net.Listener
	metricsLn net.Listener
	debugLn   net.Listener
	apiSrv    *http.Server
	metricSrv *http.Server
	debugSrv  *http.Server

	stop chan struct{}  // closed by Close: ends the schedule loop
	loop sync.WaitGroup // the schedule loop, while it runs

	mu      sync.Mutex
	closed  bool
	closers []func() error // shutdown hooks, run in reverse order
}

// New builds the daemon and binds its listeners, but does not serve
// yet; call Serve. On error, everything partially constructed is torn
// down.
func New(opts Options) (_ *Daemon, err error) {
	if opts.JournalCap < 0 {
		return nil, fmt.Errorf("daemon: negative journal capacity %d", opts.JournalCap)
	}
	clock := opts.Clock
	if clock == nil {
		clock = simclock.RealClock{}
	}
	d := &Daemon{clock: clock, byID: make(map[string]*Tenant), stop: make(chan struct{})}
	d.slo = obs.NewSLO(obs.Config{OnTransition: d.onSLOTransition})
	defer func() {
		if err != nil {
			d.Close() //nolint:errcheck // already failing
		}
	}()

	// A daemon built without Tenants hosts one home and keeps the
	// single-home on-disk layout: un-prefixed store keys and PersistDir
	// itself. Otherwise each tenant's keys live under "t/<id>/" and its
	// files under PersistDir/tenants/<id>.
	flat := len(opts.Tenants) == 0
	specs := opts.Tenants
	if flat {
		specs = []TenantSpec{{
			ID:              DefaultTenantID,
			Residence:       opts.Residence,
			Seed:            opts.Seed,
			Mode:            opts.Mode,
			WeeklyBudgetKWh: opts.WeeklyBudgetKWh,
		}}
	}
	for _, spec := range specs {
		if err := ParseTenantID(spec.ID); err != nil {
			return nil, err
		}
		if _, dup := d.byID[spec.ID]; dup {
			return nil, fmt.Errorf("daemon: duplicate tenant ID %q", spec.ID)
		}
		d.byID[spec.ID] = nil // reserved; filled after construction
	}

	// The physical store opens once and is shared by every tenant
	// through a key-prefix namespace.
	if d.store, err = openStoreBackend(opts); err != nil {
		return nil, err
	}
	if d.store != nil {
		d.closers = append(d.closers, d.store.Close)
	}

	for _, spec := range specs {
		view, dir := d.store, opts.PersistDir
		if !flat {
			if d.store != nil {
				view = store.Namespace(d.store, tenantStorePrefix(spec.ID))
			}
			if dir != "" {
				dir = tenantDir(dir, spec.ID)
			}
		}
		t, err := d.newTenant(opts, spec, view, dir)
		if err != nil {
			return nil, err
		}
		d.tenants = append(d.tenants, t)
		d.byID[t.id] = t
	}
	// Sort by ID for deterministic fan-out and reporting; the default
	// tenant keeps its role by ID, not position.
	for i := 1; i < len(d.tenants); i++ {
		for j := i; j > 0 && d.tenants[j-1].id > d.tenants[j].id; j-- {
			d.tenants[j-1], d.tenants[j] = d.tenants[j], d.tenants[j-1]
		}
	}
	d.def = d.byID[specs[0].ID]

	if opts.DiagnosticsDir != "" {
		if d.recorder, err = d.newRecorder(opts); err != nil {
			return nil, err
		}
	}

	members := make([]fleet.Member, len(d.tenants))
	for i, t := range d.tenants {
		t := t
		members[i] = fleet.Member{ID: t.id, Step: func(ctx context.Context) error {
			_, err := t.ctrl.StepCtx(ctx)
			return err
		}}
	}
	d.sched, err = fleet.New(members, fleet.Options{
		Workers: opts.FleetWorkers,
		OnError: func(id string, err error) {
			// A planner cycle that died on a full or failing disk must
			// degrade the store, not crash the daemon mid-plan.
			d.noteError(id, err)
		},
		// Every cycle outcome feeds the per-tenant SLO windows; alert
		// states re-evaluate once per cycle, after the fan-out drains.
		ObserveResult: func(id string, seconds float64, err error) {
			d.slo.Observe(id, d.clock.Now(), seconds, err != nil)
		},
		AfterCycle: func() { d.slo.Evaluate(d.clock.Now()) },
	})
	if err != nil {
		return nil, err
	}

	if opts.Interval > 0 {
		d.loop.Add(1)
		go func() {
			defer d.loop.Done()
			d.schedule(opts.Interval)
		}()
		obsLogf("EP scheduled every %v for %d tenant(s), %d fleet worker(s)",
			opts.Interval, len(d.tenants), d.sched.Workers())
	}

	d.apiLn, err = net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, err
	}
	apiMux := http.NewServeMux()
	apiMux.HandleFunc("/t/{home}/", d.tenantAPI)
	apiMux.Handle("/", d.def.api) // un-prefixed routes → default tenant
	d.apiSrv = newHTTPServer(apiMux)
	if opts.MetricsAddr != "" {
		d.metricsLn, err = net.Listen("tcp", opts.MetricsAddr)
		if err != nil {
			return nil, err
		}
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", metrics.Handler())
		mux.Handle("GET /healthz", d.healthz())
		mux.Handle("GET /debug/spans", metrics.DefaultTracer().Handler())
		mux.Handle("GET /debug/exemplars", metrics.ExemplarHandler())
		mux.Handle("GET /debug/logs", obs.LogsHandler(obs.DefaultHandler().Ring()))
		mux.HandleFunc("GET /debug/decisions", d.decisionsHandler)
		mux.HandleFunc("GET /debug/trace/{id}", d.traceHandler)
		d.metricSrv = newHTTPServer(mux)
	}
	if opts.DebugAddr != "" {
		d.debugLn, err = net.Listen("tcp", opts.DebugAddr)
		if err != nil {
			return nil, err
		}
		d.debugSrv = newHTTPServer(d.debugMux())
	}
	return d, nil
}

// schedule runs one fleet cycle every interval on the daemon's clock,
// the prototype's crontab entry for the Energy Planner, until Close
// closes d.stop. A cycle in flight finishes first. With a SimClock,
// advancing time drives it.
func (d *Daemon) schedule(interval time.Duration) {
	for {
		select {
		case <-d.clock.After(interval):
			if err := d.sched.Cycle(context.Background()); err != nil {
				obsLogf("EP cycle: %v", err)
			}
		case <-d.stop:
			return
		}
	}
}

// tenantAPI routes /t/{home}/... to the named tenant's REST API. The
// home segment is matched against the registered (pre-validated)
// tenant set — an unknown or hostile ID can only 404 here; it never
// reaches a store namespace, journal, or controller.
func (d *Daemon) tenantAPI(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("home")
	t, ok := d.byID[id]
	if !ok || t == nil {
		http.NotFound(w, r)
		return
	}
	t.strip.ServeHTTP(w, r)
}

// openStoreBackend builds the Adapter selected by StoreBackend. It
// returns (nil, nil) — no store at all — when the configuration
// disables persistence, so callers must check for nil before wiring;
// returning a typed-nil Adapter here would defeat those checks.
func openStoreBackend(opts Options) (store.Adapter, error) {
	switch opts.StoreBackend {
	case "", "wal":
		if opts.StoreDir == "" {
			return nil, nil
		}
		return store.Open(store.Options{Dir: opts.StoreDir, FS: opts.FS})
	case "mem":
		return store.OpenMem(), nil
	default:
		return nil, fmt.Errorf("daemon: unknown store backend %q", opts.StoreBackend)
	}
}

// newHTTPServer applies the daemon's server hardening: header and body
// read deadlines so a stalled or malicious client cannot pin a
// connection open forever, and an idle timeout to reap keep-alives.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// mergedDecisions collects events across every tenant's journal,
// stamping the serving-time Tenant decoration onto the copies. The
// per-tenant rings themselves stay undecorated — identical to what a
// single-home daemon would hold, which is what the equivalence harness
// compares. The merged stream is ordered by slot, ties in tenant-ID
// then sequence order, so Filter.Limit keeps the newest events of
// every home rather than the tail of the last one; Filter.Tenant
// selects one home. Under a limit each journal contributes only its
// own last Limit events in that order (journal.Latest): no event past
// them can reach the merged tail.
func (d *Daemon) mergedDecisions(f journal.Filter) []journal.Event {
	tenantFilter := f.Tenant
	f.Tenant = ""
	out := []journal.Event{}
	for _, t := range d.tenants {
		if tenantFilter != "" && t.id != tenantFilter {
			continue
		}
		evs := t.journal.Latest(f)
		for i := range evs {
			evs[i].Tenant = t.id
		}
		out = append(out, evs...)
	}
	slices.SortStableFunc(out, func(a, b journal.Event) int { return a.Slot.Compare(b.Slot) })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// decisionsHandler serves GET /debug/decisions across every tenant,
// with the journal's query-parameter filters plus tenant=<home>.
func (d *Daemon) decisionsHandler(w http.ResponseWriter, r *http.Request) {
	f, err := journal.ParseFilter(r.URL.Query())
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck // response committed
		return
	}
	json.NewEncoder(w).Encode(d.mergedDecisions(f)) //nolint:errcheck // response committed
}

// traceHandler serves GET /debug/trace/{id}: everything the daemon
// knows about one trace — its spans (from the in-memory tracer ring)
// and the planner decisions it caused, across all tenants.
func (d *Daemon) traceHandler(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans := metrics.DefaultTracer().ByTrace(id)
	decisions := d.mergedDecisions(journal.Filter{Trace: id})
	if spans == nil {
		spans = []metrics.SpanRecord{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck // response committed
		"trace":     id,
		"spans":     spans,
		"decisions": decisions,
	})
}

// Tenant returns the named tenant, or nil if unknown.
func (d *Daemon) Tenant(id string) *Tenant {
	return d.byID[id]
}

// Tenants returns the hosted tenant IDs, sorted.
func (d *Daemon) Tenants() []string {
	ids := make([]string, len(d.tenants))
	for i, t := range d.tenants {
		ids[i] = t.id
	}
	return ids
}

// Fleet exposes the fleet scheduler; tests and embedders drive
// explicit planning cycles through it.
func (d *Daemon) Fleet() *fleet.Scheduler { return d.sched }

// APIAddr returns the REST listener's bound address.
func (d *Daemon) APIAddr() string { return d.apiLn.Addr().String() }

// MetricsAddr returns the observability listener's bound address, or ""
// when disabled.
func (d *Daemon) MetricsAddr() string {
	if d.metricsLn == nil {
		return ""
	}
	return d.metricsLn.Addr().String()
}

// DebugAddr returns the debug (pprof/flight) listener's bound address,
// or "" when disabled.
func (d *Daemon) DebugAddr() string {
	if d.debugLn == nil {
		return ""
	}
	return d.debugLn.Addr().String()
}

// SLO exposes the per-tenant SLO engine.
func (d *Daemon) SLO() *obs.SLO { return d.slo }

// Recorder exposes the flight recorder, or nil when
// Options.DiagnosticsDir is empty.
func (d *Daemon) Recorder() *obs.Recorder { return d.recorder }

// Serve blocks serving every bound listener (API, metrics, debug) until
// Close is called. It returns the first serve error, or nil on clean
// shutdown.
func (d *Daemon) Serve() error {
	type bound struct {
		srv *http.Server
		ln  net.Listener
	}
	servers := []bound{{d.apiSrv, d.apiLn}}
	if d.metricSrv != nil {
		servers = append(servers, bound{d.metricSrv, d.metricsLn})
	}
	if d.debugSrv != nil {
		servers = append(servers, bound{d.debugSrv, d.debugLn})
	}
	errc := make(chan error, len(servers))
	for _, b := range servers {
		go func() { errc <- b.srv.Serve(b.ln) }()
	}
	var first error
	for range servers {
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) && first == nil {
			first = err
			d.Close() //nolint:errcheck // tearing down after serve error
		}
	}
	return first
}

// Start runs Serve on a goroutine and returns immediately; serve errors
// go to the operator log. Tests use Start + Close.
func (d *Daemon) Start() {
	// The goroutine's lifetime is bounded by the daemon, not a local
	// join: Serve parks in the listener loops and returns when Close
	// shuts them down, so Close is the join point.
	//imcf:allow goleak Serve returns when Close closes the listeners; Close is the join
	go func() {
		if err := d.Serve(); err != nil {
			obsLogf("daemon: serve: %v", err)
		}
	}()
}

// Close shuts the daemon down: the schedule loop (after any cycle in
// flight), HTTP servers, then the shutdown hooks (emulators,
// persistence, stores) in reverse order. It is idempotent.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()

	close(d.stop)
	d.loop.Wait()
	// Drain in-flight requests before tearing down the closers they may
	// depend on (store, persistence); force-close whatever is still
	// running when the grace period expires.
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	var firstErr error
	shutdown := func(srv *http.Server) {
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close() //nolint:errcheck // force close after drain timeout
			if firstErr == nil && !errors.Is(err, context.DeadlineExceeded) {
				firstErr = err
			}
		}
	}
	if d.apiSrv != nil {
		shutdown(d.apiSrv)
	} else if d.apiLn != nil {
		d.apiLn.Close() //nolint:errcheck // listener without server
	}
	if d.metricSrv != nil {
		shutdown(d.metricSrv)
	} else if d.metricsLn != nil {
		d.metricsLn.Close() //nolint:errcheck // listener without server
	}
	if d.debugSrv != nil {
		shutdown(d.debugSrv)
	} else if d.debugLn != nil {
		d.debugLn.Close() //nolint:errcheck // listener without server
	}
	for i := len(d.closers) - 1; i >= 0; i-- {
		if err := d.closers[i](); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// The degraded gauge is process-global: zero it if this daemon
	// closed while degraded, or it keeps reporting a store that no
	// longer exists.
	d.faultMu.Lock()
	if d.fault != nil {
		storeDegradedGauge.Set(0)
	}
	d.faultMu.Unlock()
	return firstErr
}
