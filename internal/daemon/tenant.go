// Multi-home tenancy: a single daemon process hosts N tenants, each a
// full Local Controller stack — its own MRT, Energy Planner controller,
// decision journal, persisted decision log, and store namespace —
// sharing the process-wide substrates (clock, metrics registry, fleet
// scheduler, and the stateless hash-based weather/ECP/device trace
// generators, which are pure functions of (seed, time) and therefore
// concurrency-safe by construction).
//
// Store namespacing rides the store.Adapter seam: every tenant routes
// through one shared physical store via store.Namespace(parent,
// "t/<id>/"). Persisted artifacts live per tenant under
// PersistDir/tenants/<id>/.... A single-home daemon
// (Options.Tenants empty) is a fleet of one: the same tenant, built the
// same way, with un-prefixed store keys and PersistDir itself as its
// directory, so it reopens what earlier single-home builds wrote.
package daemon

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"github.com/imcf/imcf/internal/controller"
	"github.com/imcf/imcf/internal/devicesim"
	"github.com/imcf/imcf/internal/firewall"
	"github.com/imcf/imcf/internal/home"
	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/metrics"
	"github.com/imcf/imcf/internal/persistence"
	"github.com/imcf/imcf/internal/rules"
	"github.com/imcf/imcf/internal/simclock"
	"github.com/imcf/imcf/internal/store"
	"github.com/imcf/imcf/internal/stream"
	"github.com/imcf/imcf/internal/units"
)

// DefaultTenantID names the tenant synthesized for single-home daemons.
const DefaultTenantID = "home"

// maxTenantIDLen bounds tenant identifiers; they become path elements
// and metric label values, so they stay short.
const maxTenantIDLen = 64

// TenantSpec declares one home hosted by a multi-tenant daemon. Empty
// fields inherit the corresponding daemon-wide Options value (Seed is
// taken verbatim — cmd/imcfd derives per-home seeds from -seed plus the
// tenant's position).
type TenantSpec struct {
	// ID is the home identifier, routed as /t/<ID>/... and used as the
	// store-namespace and directory name; see ParseTenantID.
	ID string
	// Residence names the built-in layout; empty inherits Options.
	Residence string
	// Seed parameterizes the home's ambient traces.
	Seed uint64
	// Mode is EP, IFTTT or manual; empty inherits Options.
	Mode string
	// WeeklyBudgetKWh is the weekly energy allowance; 0 inherits
	// Options.
	WeeklyBudgetKWh float64
}

// ParseTenantID validates a tenant identifier. IDs become store-key
// prefixes ("t/<id>/"), journal directory names and URL path segments,
// so the charset is strict: 1–64 characters of [a-zA-Z0-9._-],
// starting with a letter or digit. That rules out every path and
// keyspace escape by construction — no separators ('/', '\'), no
// leading dot (so ".", ".." and hidden files are impossible), no NUL,
// no spaces, nothing URL-escapable.
func ParseTenantID(id string) error {
	if id == "" {
		return errors.New("daemon: empty tenant ID")
	}
	if len(id) > maxTenantIDLen {
		return fmt.Errorf("daemon: tenant ID longer than %d bytes", maxTenantIDLen)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		alnum := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if i == 0 && !alnum {
			return fmt.Errorf("daemon: tenant ID %q must start with a letter or digit", id)
		}
		if !alnum && c != '-' && c != '_' && c != '.' {
			return fmt.Errorf("daemon: tenant ID %q may only contain [a-zA-Z0-9._-]", id)
		}
	}
	return nil
}

// tenantStorePrefix is the key prefix routing a tenant's store traffic
// on shared (wal/mem) backends. Because IDs cannot contain '/', two
// tenants' prefixes can never alias each other's keys.
func tenantStorePrefix(id string) string { return "t/" + id + "/" }

// tenantDir is the audited mediator for every per-tenant on-disk
// location: <base>/tenants/<id>. Callers pass IDs ParseTenantID has
// accepted (New validates every spec before building tenants), and the
// charset has no separators, so the path cannot escape base. The
// tenantisolation lint rule recognizes this helper by name; tenant
// paths assembled any other way are findings.
func tenantDir(base, id string) string { return filepath.Join(base, "tenants", id) }

// Tenant is one home inside the daemon: the controller and every
// tenant-scoped resource around it.
type Tenant struct {
	id      string
	ctrl    *controller.Controller
	health  *metrics.Health
	journal *journal.Journal
	store   store.Adapter // tenant-scoped view; nil without a store
	api     http.Handler  // access-log- and degrade-wrapped REST API
	strip   http.Handler  // api behind the /t/<id> prefix strip
	clock   simclock.Clock
}

// ID returns the home identifier.
func (t *Tenant) ID() string { return t.id }

// Controller exposes the tenant's Local Controller.
func (t *Tenant) Controller() *controller.Controller { return t.ctrl }

// Journal exposes the tenant's decision-provenance journal.
func (t *Tenant) Journal() *journal.Journal { return t.journal }

// Health exposes the tenant's health state.
func (t *Tenant) Health() *metrics.Health { return t.health }

// Store exposes the tenant's store view (namespaced when the daemon
// hosts tenants), or nil when no store is configured.
func (t *Tenant) Store() store.Adapter { return t.store }

// buildResidence constructs a built-in residence layout.
func buildResidence(name string, seed uint64) (*home.Residence, error) {
	switch name {
	case "prototype":
		return home.Prototype(seed)
	case "flat":
		return home.Flat(seed)
	case "house":
		return home.House(seed)
	default:
		return nil, fmt.Errorf("daemon: unknown residence %q", name)
	}
}

// parseMode maps the wire mode names onto controller modes.
func parseMode(mode string) (controller.Mode, error) {
	switch mode {
	case "EP", "ep", "":
		return controller.ModeEP, nil
	case "IFTTT", "ifttt":
		return controller.ModeIFTTT, nil
	case "manual":
		return controller.ModeManual, nil
	default:
		return 0, fmt.Errorf("daemon: unknown mode %q", mode)
	}
}

// newTenant assembles one tenant: residence, journal, persistence,
// optional emulators and the controller. New decides the on-disk
// layout and passes in the tenant's store view and persistence
// directory (empty disables persistence). Closers for tenant-owned
// resources are appended to the daemon.
func (d *Daemon) newTenant(opts Options, spec TenantSpec, view store.Adapter, dir string) (*Tenant, error) {
	t := &Tenant{
		id:     spec.ID,
		health: metrics.NewHealth(tenantHealthy.With(spec.ID)),
		store:  view,
		clock:  d.clock,
	}

	residence := spec.Residence
	if residence == "" {
		residence = opts.Residence
	}
	res, err := buildResidence(residence, spec.Seed)
	if err != nil {
		return nil, err
	}
	if opts.MRTPath != "" {
		src, err := os.ReadFile(opts.MRTPath)
		if err != nil {
			return nil, err
		}
		mrt, err := rules.ParseMRT(string(src))
		if err != nil {
			return nil, err
		}
		res.MRT = mrt
		if err := res.Validate(); err != nil {
			return nil, fmt.Errorf("daemon: MRT from %s: %w", opts.MRTPath, err)
		}
		obsLogf("tenant %s: loaded %d meta-rules from %s", t.id, len(mrt.Rules), opts.MRTPath)
	}

	t.journal = journal.New(opts.JournalCap) // 0 means DefaultJournalCap

	budget := spec.WeeklyBudgetKWh
	if budget == 0 {
		budget = opts.WeeklyBudgetKWh
	}
	mode := spec.Mode
	if mode == "" {
		mode = opts.Mode
	}
	cfg := controller.Config{
		Residence:    res,
		WeeklyBudget: units.Energy(budget),
		Clock:        opts.Clock,
		Health:       t.health,
		Binding:      opts.Binding,
		Journal:      t.journal,
		Store:        view,
	}
	if cfg.Mode, err = parseMode(mode); err != nil {
		return nil, err
	}

	// The instance token marks one hub lifetime: it must differ across
	// daemon restarts (sequence numbers are not comparable); the tenant
	// ID prefix only makes it readable.
	hub := stream.NewHub(t.id+"-"+controller.MintStreamInstance(), stream.DefaultRingCap)
	cfg.Stream = hub
	d.closers = append(d.closers, func() error { hub.Close(); return nil })

	if dir != "" {
		svc, err := persistence.OpenFS(dir, opts.FS)
		if err != nil {
			return nil, err
		}
		d.closers = append(d.closers, svc.Close)
		cfg.Persistence = svc
		obsLogf("tenant %s: recording measurements to %s", t.id, dir)

		jl, err := persistence.OpenJournal(dir, opts.FS)
		if err != nil {
			return nil, err
		}
		d.closers = append(d.closers, jl.Close)
		// Replay first so a restarted daemon can still explain
		// decisions made before the restart, then sink so new
		// verdicts append to the same log.
		n, err := jl.Replay(t.journal.Preload)
		if err != nil {
			return nil, fmt.Errorf("daemon: replay decision journal: %w", err)
		}
		if n > 0 {
			obsLogf("tenant %s: replayed %d journaled decisions from %s", t.id, n, jl.Path())
		}
		t.journal.SetSink(jl)
	}

	if opts.Emulate {
		fw := firewall.New()
		endpoints := make(map[string]string)
		for _, z := range res.Zones {
			dk, err := devicesim.StartDaikin()
			if err != nil {
				return nil, err
			}
			d.closers = append(d.closers, dk.Close)
			endpoints[z.HVAC.ID] = dk.URL()
			obsLogf("tenant %s: emulated %s at %s (LAN addr %s)", t.id, z.HVAC.ID, dk.URL(), z.HVAC.Addr)

			hue, err := devicesim.StartHue()
			if err != nil {
				return nil, err
			}
			d.closers = append(d.closers, hue.Close)
			endpoints[z.Light.ID] = hue.URL()
			obsLogf("tenant %s: emulated %s at %s (LAN addr %s)", t.id, z.Light.ID, hue.URL(), z.Light.Addr)
		}
		cfg.Firewall = fw
		cfg.Binding = &controller.HTTPBinding{Endpoints: endpoints, Firewall: fw}
	}

	if t.ctrl, err = controller.New(cfg); err != nil {
		return nil, err
	}
	t.api = t.obsMiddleware(d.degradeMiddleware(t.id, controller.API(t.ctrl)))
	t.strip = http.StripPrefix("/t/"+t.id, t.api)
	return t, nil
}
