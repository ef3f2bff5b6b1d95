// Command imcfd runs the IMCF Local Controller as a daemon: it builds a
// residence, optionally starts emulated Daikin/Hue devices and drives
// them over HTTP, runs the Energy Planner every -interval, and serves
// the openHAB-style REST API plus Prometheus metrics.
//
// Usage:
//
//	imcfd [-addr :8088] [-metrics-addr :8089] [-residence prototype|flat|house]
//	      [-store DIR] [-interval 1h] [-weekly-budget 165] [-emulate] [-seed 42]
//	      [-tenants h1,h2,...] [-fleet-workers 8]
//
// Every home is a tenant with its own controller, decision journal and
// health, served under /t/<id>/rest/...; the un-prefixed routes serve
// the first one, and /healthz reports its liveness. All homes share one
// store: a disk fault any home confirms turns every home read-only
// until a probe sees the disk recover, and /healthz reports it.
// Without -tenants the daemon hosts one home, ID "home", on the
// single-home on-disk layout (un-prefixed store keys, decision log
// directly under -persist). With -tenants, each comma-separated home
// ID becomes a tenant with its own store namespace and persist
// subdirectory; per-home trace seeds derive from -seed plus the
// tenant's position. Either way each -interval plans every home
// through the fleet scheduler; -fleet-workers bounds how many homes
// plan concurrently per cycle. The decision journal fsyncs every
// event.
//
// Each tenant also serves the delta-sync decision stream (DESIGN.md
// §16) at /rest/stream/snapshot and /rest/stream (long-poll, with a
// delta ring of 256 events).
//
// With -emulate, every HVAC and light in the residence gets an
// in-process device emulator and commands flow over real loopback HTTP
// through the meta-control firewall. The metrics listener serves
// GET /metrics (Prometheus text exposition), GET /healthz,
// GET /debug/spans, GET /debug/exemplars, GET /debug/logs (the
// structured-log ring), GET /debug/decisions (the Energy-Planner
// decision journal, see cmd/imcf-explain) and GET /debug/trace/{id};
// -metrics-addr "" disables it. The opt-in -debug-addr listener serves
// net/http/pprof and POST /debug/flight.
package main

import (
	"flag"
	"log"
	"os"
	"strings"
	"time"

	"github.com/imcf/imcf/internal/daemon"
	"github.com/imcf/imcf/internal/home"
	"github.com/imcf/imcf/internal/obs"
)

func main() {
	var (
		addr         = flag.String("addr", ":8088", "REST API listen address")
		metricsAddr  = flag.String("metrics-addr", ":8089", "metrics/health listen address (empty disables)")
		residence    = flag.String("residence", "prototype", "residence: prototype, flat or house")
		storeDir     = flag.String("store", "", "persistence directory (empty disables)")
		storeBackend = flag.String("store-backend", "wal", "storage engine: wal or mem")
		interval     = flag.Duration("interval", time.Hour, "EP scheduling interval")
		weekly       = flag.Float64("weekly-budget", home.PrototypeWeeklyBudget.KWh(), "weekly energy budget in kWh")
		emulate      = flag.Bool("emulate", false, "start HTTP device emulators and drive them")
		seed         = flag.Uint64("seed", 42, "residence seed")
		mrtPath      = flag.String("mrt", "", "Meta-Rule Table file in the textual format (overrides the residence's)")
		persist      = flag.String("persist", "", "directory for measurement persistence (empty disables)")
		mode         = flag.String("mode", "EP", "planning mode: EP, IFTTT or manual")
		journalCap   = flag.Int("journal-cap", daemon.DefaultJournalCap, "decision journal ring capacity per tenant (0 means the default; negative is rejected)")
		tenants      = flag.String("tenants", "", "comma-separated home IDs for multi-tenant hosting (empty: one single-home tenant)")
		fleetWorkers = flag.Int("fleet-workers", 1, "tenants planning concurrently per fleet cycle")
		debugAddr    = flag.String("debug-addr", "", "debug listen address for pprof and POST /debug/flight (empty disables)")
		diagnostics  = flag.String("diagnostics", "diagnostics", "flight-recorder bundle directory (empty disables; SIGQUIT dumps a bundle)")
		logLevel     = flag.String("log-level", "info", "structured log level: debug, info, warn or error")
	)
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("imcfd: -log-level: %v", err)
	}
	obs.SetLevel(lvl)
	// Mirror structured records to stderr as JSON lines; the in-memory
	// ring (served at /debug/logs) retains them regardless.
	obs.DefaultHandler().SetOutput(os.Stderr)

	var specs []daemon.TenantSpec
	if *tenants != "" {
		for i, id := range strings.Split(*tenants, ",") {
			id = strings.TrimSpace(id)
			if err := daemon.ParseTenantID(id); err != nil {
				log.Fatalf("imcfd: -tenants: %v", err)
			}
			specs = append(specs, daemon.TenantSpec{ID: id, Seed: *seed + uint64(i)})
		}
	}

	d, err := daemon.New(daemon.Options{
		Addr:            *addr,
		MetricsAddr:     *metricsAddr,
		Residence:       *residence,
		Seed:            *seed,
		Tenants:         specs,
		FleetWorkers:    *fleetWorkers,
		StoreDir:        *storeDir,
		StoreBackend:    *storeBackend,
		PersistDir:      *persist,
		MRTPath:         *mrtPath,
		Mode:            *mode,
		Interval:        *interval,
		WeeklyBudgetKWh: *weekly,
		Emulate:         *emulate,
		JournalCap:      *journalCap,
		DebugAddr:       *debugAddr,
		DiagnosticsDir:  *diagnostics,
	})
	if err != nil {
		log.Fatalf("imcfd: %v", err)
	}
	defer d.Close() //nolint:errcheck // best-effort shutdown

	handleSignals(d)
	log.Printf("REST API on %s", d.APIAddr())
	if ma := d.MetricsAddr(); ma != "" {
		log.Printf("metrics on http://%s/metrics (health: /healthz, logs: /debug/logs)", ma)
	}
	if da := d.DebugAddr(); da != "" {
		log.Printf("debug on http://%s/debug/pprof/ (flight: POST /debug/flight)", da)
	}
	if err := d.Serve(); err != nil {
		log.Fatalf("imcfd: %v", err)
	}
}
