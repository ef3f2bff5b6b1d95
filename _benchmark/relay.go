package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/imcf/imcf/internal/client"
	"github.com/imcf/imcf/internal/cloud"
	"github.com/imcf/imcf/internal/controller"
	"github.com/imcf/imcf/internal/daemon"
	"github.com/imcf/imcf/internal/rules"
	"github.com/imcf/imcf/internal/stream"
)

// relay-mix runs a daemon with a handful of prototype tenants, each
// registered as a site on a bearer-token cloud.Relay, and drives them
// with nproc closed-loop SDK clients through the relay. The daemon uses
// the durable wal store and measurement persistence. Every round, each
// client takes each of its tenants through the same seven requests —
// two writes and five reads — then the simulated clock advances an hour.
// Each tenant's requests all come from one client. One operation, and
// one call, is one SDK request.

type relayConfig struct {
	tenants int // prototype homes, shared round-robin by the nproc clients
}

func relayFull() relayConfig { return relayConfig{tenants: 4} }

func relayTiny() relayConfig { return relayConfig{tenants: 2} }

// relayEpoch is the simulated hour of the first round; the clock then
// advances one hour per round (measurement persistence only accepts
// readings in time order, so rounds do not rewind).
var relayEpoch = time.Date(2021, time.March, 1, 0, 0, 0, 0, time.UTC)

// spanHeader carries the benchmark's span ID from the SDK's transport
// through the relay (which forwards end-to-end request headers) to the
// relay's upstream transport, so the two round trips of one request
// pair up in the trace.
const spanHeader = "X-Imcfbench-Span"

// requestsPerTenant is the number of SDK requests a tenant sees per round.
const requestsPerTenant = 7

// relayTenant is one site as one client drives it.
type relayTenant struct {
	id, site string
	sdk      *client.Client
	tp       *sdkTransport
	model    homeModel
	base     rules.MRT // the residence's table, before any edit
	mrt      rules.MRT // the last table the daemon acknowledged
	edits    int
	etag     string
	mirror   *stream.Mirror
	blocks   blockState // the model of the firewall, fed with every plan run

	// What the last round saw, checked after the round.
	log relayLog
}

// relayLog is one round's responses for one tenant.
type relayLog struct {
	report     controller.StepReport
	runOK      bool
	plan       *controller.StepReport // conditional GET after the run (must be 200)
	planStatus string
	again304   bool // conditional GET with the fresh ETag answered 304
	fw         []string
	mrtRead    *rules.MRT
	synced     bool
}

type relayBench struct {
	e   env
	cfg relayConfig

	specs   []daemon.TenantSpec
	models  map[string]homeModel
	bases   map[string]rules.MRT
	token   string
	dir     string
	clock   *hourClock
	d       *daemon.Daemon
	relay   *cloud.Relay
	srv     *http.Server
	srvWG   sync.WaitGroup
	relayTP *upstreamTransport
	tenants []*relayTenant
	setups  int
	rounds  int

	mu                sync.Mutex // guards the histograms below
	readLat, writeLat latHist
	callLat           *latHist // the runner's histogram of the current round

	// Traced-round accumulators.
	tracedOps, edits, runs     int64
	conditional, notModified   int64
	syncs, syncReqs, syncBytes int64
	persistBytes               int64
	counts                     counterSet
	c0                         counterSet
	p0                         int64
}

func newRelay(e env, cfg relayConfig) *relayBench {
	return &relayBench{e: e, cfg: cfg, counts: counterSet{}, token: fmt.Sprintf("bench-token-%d", e.seed)}
}

// sdkTransport sits under one benchmark client's SDK: it authenticates
// to the relay, opens a client.http span per round trip in traced
// rounds, and counts stream-sync traffic when asked to.
type sdkTransport struct {
	base   http.RoundTripper
	token  string
	tr     *tracer // set per request by the client goroutine; nil untraced
	parent int32
	count  bool
	reqs   int64
	bytes  int64
}

func (t *sdkTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set("Authorization", "Bearer "+t.token)
	sp := t.tr.start("client.http", t.parent)
	if sp != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(sp)))
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(sp)
		return nil, err
	}
	if t.count {
		t.reqs++
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes, counting: t.count, onClose: func() { t.tr.end(sp) }}
	return resp, nil
}

// countingBody counts the bytes read from a response body into n when
// counting is set, and runs onClose once when the body is closed.
type countingBody struct {
	io.ReadCloser
	n        *int64
	counting bool
	once     sync.Once
	onClose  func()
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.counting {
		*b.n += int64(n)
	}
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.onClose)
	return err
}

// upstreamTransport is the transport of the http.Client given to
// cloud.NewRelay: it times the relay's round trip to the daemon when the
// request carries a benchmark span.
type upstreamTransport struct {
	base http.RoundTripper
	tr   atomic.Pointer[tracer]
}

func (t *upstreamTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.tr.Load()
	var sp int32
	if tr != nil {
		if parent, err := strconv.Atoi(req.Header.Get(spanHeader)); err == nil && parent > 0 {
			sp = tr.start("cloud.upstream", int32(parent))
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		tr.end(sp)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, onClose: func() { tr.end(sp) }}
	return resp, nil
}

func newHTTPTransport(conns int) *http.Transport {
	return &http.Transport{
		Proxy:               nil,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
	}
}

func (r *relayBench) setup(tr *tracer) error {
	if r.specs == nil {
		specs, models, err := tenantSpecs(r.e.seed, r.cfg.tenants, []string{"prototype"})
		if err != nil {
			return err
		}
		r.specs, r.models, r.bases = specs, models, map[string]rules.MRT{}
		for _, s := range specs {
			res, err := residence(s.Residence, s.Seed)
			if err != nil {
				return err
			}
			r.bases[s.ID] = res.MRT
		}
	}
	r.setups++
	r.dir = filepath.Join(r.e.scratch, fmt.Sprintf("relay-%d", r.setups))
	r.clock = newHourClock(relayEpoch)
	r.rounds = 0
	ctx := context.Background()

	sp := tr.start("daemon.new", 0)
	d, err := daemon.New(r.daemonOpts(true))
	tr.end(sp)
	if err != nil {
		return err
	}
	r.d = d
	d.Start()

	r.relayTP = &upstreamTransport{base: newHTTPTransport(r.e.nproc)}
	r.relay = cloud.NewRelay(r.token, &http.Client{Transport: r.relayTP, Timeout: 30 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.srv = &http.Server{Handler: r.relay.Handler(), ReadHeaderTimeout: 10 * time.Second}
	r.srvWG.Add(1)
	go func() {
		defer r.srvWG.Done()
		r.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	}()
	relayURL := "http://" + ln.Addr().String()

	// One transport (one connection) per client; each tenant belongs to
	// exactly one client.
	tps := make([]*http.Transport, r.e.nproc)
	for i := range tps {
		tps[i] = newHTTPTransport(1)
	}
	r.tenants = nil
	for i, s := range r.specs {
		site := "site-" + s.ID
		if err := r.relay.Register(site, "http://"+d.APIAddr()+"/t/"+s.ID); err != nil {
			return err
		}
		tp := &sdkTransport{base: tps[i%r.e.nproc], token: r.token}
		sdk, err := client.New(relayURL+"/cc/sites/"+site, &http.Client{Transport: tp, Timeout: 30 * time.Second})
		if err != nil {
			return err
		}
		t := &relayTenant{id: s.ID, site: site, sdk: sdk.WithRetries(2), tp: tp, model: r.models[s.ID],
			base: r.bases[s.ID], mrt: r.bases[s.ID], mirror: stream.NewMirror(), blocks: blockState{}}
		sp := tr.start("client.sync", 0)
		tp.tr, tp.parent = tr, sp
		err = t.sdk.Sync(ctx, t.mirror)
		tp.tr, tp.parent = nil, 0
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("first mirror snapshot of %s: %w", site, err)
		}
		r.tenants = append(r.tenants, t)
	}
	return nil
}

func (r *relayBench) daemonOpts(persist bool) daemon.Options {
	o := daemon.Options{
		Addr:         "127.0.0.1:0",
		Tenants:      r.specs,
		FleetWorkers: r.e.nproc,
		StoreBackend: "wal",
		StoreDir:     filepath.Join(r.dir, "store"),
		Clock:        r.clock,
	}
	if persist {
		o.PersistDir = filepath.Join(r.dir, "persist")
	}
	return o
}

// close stops the relay server and the daemon of the last set-up and
// removes its directories.
func (r *relayBench) close() error {
	err := r.stop()
	if r.dir != "" {
		err = errors.Join(err, os.RemoveAll(r.dir))
		r.dir = ""
	}
	return err
}

// stop shuts the relay server and the daemon down, keeping their files.
func (r *relayBench) stop() error {
	var errs []error
	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, r.srv.Shutdown(ctx))
		cancel()
		r.srvWG.Wait()
		r.srv = nil
	}
	for _, t := range r.tenants {
		t.tp.base.(*http.Transport).CloseIdleConnections()
	}
	if r.relayTP != nil {
		r.relayTP.base.(*http.Transport).CloseIdleConnections()
	}
	if r.d != nil {
		errs = append(errs, r.d.Close())
		r.d = nil
	}
	return errors.Join(errs...)
}

// editMRT returns t's table with the next setpoint edit applied: edit n
// moves rule n mod R one unit up from the residence's value on odd
// passes over the rules and back on even ones, so every edit changes
// exactly one setpoint.
func (t *relayTenant) editMRT() rules.MRT {
	out := rules.MRT{Rules: append([]rules.MetaRule(nil), t.mrt.Rules...)}
	var conv []int
	for i, rl := range out.Rules {
		if rl.Action != rules.ActionSetKWhLimit {
			conv = append(conv, i)
		}
	}
	k := conv[t.edits%len(conv)]
	out.Rules[k].Value = t.base.Rules[k].Value
	if (t.edits/len(conv))%2 == 0 {
		out.Rules[k].Value++
	}
	return out
}

// record files one request's latency as a read or a write.
func (r *relayBench) record(write bool, ms float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if write {
		r.writeLat.add(ms)
	} else {
		r.readLat.add(ms)
	}
	r.callLat.add(ms)
}

// drive runs one tenant's seven requests of a round.
func (r *relayBench) drive(ctx context.Context, t *relayTenant, tr *tracer) (failed int) {
	t.log = relayLog{}
	const reads, writes = false, true
	op := func(name string, write bool, fn func() error) error {
		sp := tr.start("client."+name, 0)
		t.tp.tr, t.tp.parent = tr, sp
		t0 := time.Now()
		err := fn()
		r.record(write, float64(time.Since(t0).Nanoseconds())/1e6)
		t.tp.tr, t.tp.parent = nil, 0
		tr.end(sp)
		if err != nil {
			failed++
		}
		return err
	}
	// 1. write: one planning cycle.
	op("plan_run", writes, func() (err error) {
		t.log.report, err = t.sdk.RunPlan(ctx)
		t.log.runOK = err == nil
		return err
	})
	// 2. read: conditional GET of the plan with the ETag of the previous
	// round's plan — the plan changed, so the answer must be 200.
	op("plan_get", reads, func() error {
		body, etag, nm, err := t.sdk.GetConditional(ctx, "/rest/plan", t.etag)
		if err != nil {
			return err
		}
		if t.etag != "" {
			r.conditionalSeen(tr, nm)
		}
		if nm {
			t.log.planStatus = "304 for a plan that changed since its ETag"
			return nil
		}
		var rep controller.StepReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return err
		}
		t.log.plan, t.etag = &rep, etag
		return nil
	})
	// 3. read: the same conditional GET with the fresh ETag: 304.
	op("plan_revalidate", reads, func() error {
		_, _, nm, err := t.sdk.GetConditional(ctx, "/rest/plan", t.etag)
		if err != nil {
			return err
		}
		r.conditionalSeen(tr, nm)
		t.log.again304 = nm
		return nil
	})
	// 4. read: the firewall's block set.
	op("firewall_get", reads, func() error {
		st, err := t.sdk.Firewall(ctx)
		t.log.fw = st.Rules
		return err
	})
	// 5. write: an MRT edit changing one setpoint.
	next := t.editMRT()
	op("mrt_edit", writes, func() error {
		if err := t.sdk.SetMRT(ctx, next); err != nil {
			return err
		}
		t.mrt = next
		t.edits++
		return nil
	})
	// 6. read: the MRT, which must be what the edit wrote.
	op("mrt_get", reads, func() error {
		m, err := t.sdk.MRT(ctx)
		t.log.mrtRead = &m
		return err
	})
	// 7. read: one stream sync of the tenant's mirror.
	op("sync", reads, func() error {
		t.tp.count = tr != nil
		r0, b0 := t.tp.reqs, t.tp.bytes
		err := t.sdk.Sync(ctx, t.mirror)
		if tr != nil {
			atomic.AddInt64(&r.syncReqs, t.tp.reqs-r0)
			atomic.AddInt64(&r.syncBytes, t.tp.bytes-b0)
			atomic.AddInt64(&r.syncs, 1)
		}
		t.tp.count = false
		t.log.synced = err == nil
		return err
	})
	return failed
}

func (r *relayBench) conditionalSeen(tr *tracer, notModified bool) {
	if tr == nil {
		return
	}
	atomic.AddInt64(&r.conditional, 1)
	if notModified {
		atomic.AddInt64(&r.notModified, 1)
	}
}

var relayCounters = []string{
	"imcf_client_retries_total", "imcf_store_fsyncs_total", "imcf_store_wal_bytes_total",
	"imcf_persistence_journal_syncs_total",
}

func (r *relayBench) beginTraced() {
	r.c0, r.p0 = readCounters(relayCounters...), dirBytes(filepath.Join(r.dir, "persist"))
}

func (r *relayBench) endTraced() {
	r.counts.add(readCounters(relayCounters...).since(r.c0))
	r.persistBytes += dirBytes(filepath.Join(r.dir, "persist")) - r.p0
	r.tracedOps += int64(len(r.tenants) * requestsPerTenant)
	r.edits += int64(len(r.tenants))
	r.runs += int64(len(r.tenants))
}

func (r *relayBench) round(tr *tracer, lat *latHist) (int, int, error) {
	ctx := context.Background()
	r.callLat = lat
	r.relayTP.tr.Store(tr)
	defer r.relayTP.tr.Store(nil)
	fails := make([]int, r.e.nproc)
	var wg sync.WaitGroup
	for c := 0; c < r.e.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(r.tenants); i += r.e.nproc {
				fails[c] += r.drive(ctx, r.tenants[i], tr)
			}
		}(c)
	}
	wg.Wait()
	r.clock.advance(time.Hour)
	r.rounds++

	failed := 0
	for _, f := range fails {
		failed += f
	}
	return len(r.tenants) * requestsPerTenant, failed, nil
}

// check verifies what each tenant's requests returned in the last round.
func (r *relayBench) check() error {
	for _, t := range r.tenants {
		l := t.log
		if !l.runOK {
			continue // a failed request is counted, not checked
		}
		if err := checkStep(t.model, l.report); err != nil {
			return fmt.Errorf("%s plan/run: %w", t.site, err)
		}
		if want := relayEpoch.Add(time.Duration(r.rounds-1) * time.Hour); !l.report.Time.Equal(want) {
			return fmt.Errorf("%s plan/run: step at %v, want %v", t.site, l.report.Time, want)
		}
		if l.planStatus != "" {
			return fmt.Errorf("%s GET /rest/plan: %s", t.site, l.planStatus)
		}
		if l.plan != nil && !reflect.DeepEqual(*l.plan, l.report) {
			return fmt.Errorf("%s GET /rest/plan: %+v, want the run's report %+v", t.site, *l.plan, l.report)
		}
		if !l.again304 {
			return fmt.Errorf("%s GET /rest/plan with the current ETag: want 304", t.site)
		}
		t.blocks.apply(t.model, l.report)
		if err := checkBlockSet(t.model, t.blocks, l.report, l.fw); err != nil {
			return fmt.Errorf("%s GET /rest/firewall: %w", t.site, err)
		}
		if l.mrtRead != nil && !reflect.DeepEqual(*l.mrtRead, t.mrt) {
			return fmt.Errorf("%s GET /rest/mrt after an edit: read back a different table", t.site)
		}
		if l.synced {
			want, err := mirrorOf(t.mrt, l.report, l.fw)
			if err != nil {
				return err
			}
			if err := checkMirror(t.site+" synced mirror", t.mirror, want); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish syncs every mirror once more and compares it with the daemon's
// in-process state, closes everything, then reopens the store directory
// in a fresh daemon and requires each tenant's last acknowledged MRT.
func (r *relayBench) finish() error {
	ctx := context.Background()
	for _, t := range r.tenants {
		if err := t.sdk.Sync(ctx, t.mirror); err != nil {
			return err
		}
		c := r.d.Tenant(t.id).Controller()
		last, ok := c.LastStep()
		if !ok {
			return fmt.Errorf("%s: no plan ran", t.site)
		}
		want, err := mirrorOf(c.MRT(), last, c.Firewall().Rules())
		if err != nil {
			return err
		}
		if err := checkMirror(t.site+" mirror at the end", t.mirror, want); err != nil {
			return err
		}
	}
	if err := r.stop(); err != nil {
		return err
	}
	defer r.close()
	d, err := daemon.New(r.daemonOpts(false))
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	defer d.Close()
	for _, t := range r.tenants {
		if got := d.Tenant(t.id).Controller().MRT(); !reflect.DeepEqual(got, t.mrt) {
			return fmt.Errorf("%s: reopened store holds a different MRT than the last acknowledged edit", t.site)
		}
	}
	return d.Close()
}

func (r *relayBench) report(out io.Writer) {
	printLatency(out, "read latency", &r.readLat)
	printLatency(out, "write latency", &r.writeLat)
}

func (r *relayBench) layers(spans []span) map[string]metric {
	out := map[string]metric{}
	out["cloud.upstream_ms_p50"] = metric{1000 * median(durations(spans, "cloud.upstream")), "ms"}
	// cloud self time per request: the SDK's round trip minus the
	// relay's round trip to the daemon it caused.
	up := map[int32]span{}
	for _, s := range spans {
		if s.Name == "cloud.upstream" {
			up[s.Parent] = s
		}
	}
	var self []float64
	for _, s := range spans {
		if u, ok := up[s.ID]; ok && s.Name == "client.http" {
			self = append(self, (s.dur() - u.dur()).Seconds())
		}
	}
	out["cloud.self_ms_p50"] = metric{1000 * median(self), "ms"}
	if r.tracedOps > 0 {
		out["client.retries_per_op"] = metric{float64(r.counts["imcf_client_retries_total"]) / float64(r.tracedOps), "count"}
	}
	if r.syncs > 0 {
		out["stream.bytes_per_sync"] = metric{float64(r.syncBytes) / float64(r.syncs), "B"}
		out["stream.requests_per_sync"] = metric{float64(r.syncReqs) / float64(r.syncs), "count"}
	}
	if r.conditional > 0 {
		out["controller.not_modified_ratio"] = metric{float64(r.notModified) / float64(r.conditional), "ratio"}
	}
	if r.edits > 0 {
		out["store.fsyncs_per_edit"] = metric{float64(r.counts["imcf_store_fsyncs_total"]) / float64(r.edits), "count"}
		out["store.wal_bytes_per_edit"] = metric{float64(r.counts["imcf_store_wal_bytes_total"]) / float64(r.edits), "B"}
	}
	if r.runs > 0 {
		out["persistence.journal_syncs_per_run"] = metric{float64(r.counts["imcf_persistence_journal_syncs_total"]) / float64(r.runs), "count"}
		out["persistence.bytes_per_run"] = metric{float64(r.persistBytes) / float64(r.runs), "B"}
	}
	return out
}
