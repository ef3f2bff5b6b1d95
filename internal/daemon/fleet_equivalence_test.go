package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/simclock"
	"github.com/imcf/imcf/internal/store"
)

// The tenant-equivalence harness is the tentpole proof obligation of
// multi-home tenancy: hosting a home as one tenant among N noisy
// neighbors must be OBSERVABLY IDENTICAL to hosting it alone. The
// harness runs the same workload twice — (a) through a single-home
// daemon, (b) through the same home as one tenant in a fleet of
// differently-seeded neighbors — at fleet worker counts 1 (the
// sequential reference order) and 8 (full concurrent fan-out), and
// asserts three equivalences:
//
//  1. bit-identical FNV-1a ledger hashes over the subject's decision
//     journal stream,
//  2. elementwise-identical journal events (and byte-identical
//     persisted decision logs on disk),
//  3. identical recovered store state after shutdown, reopening the
//     WAL from disk and comparing the subject's namespaced view
//     against the single-home unprefixed dump key by key.
//
// Because journal producers never stamp Event.Tenant and programmatic
// fleet cycles carry no HTTP trace IDs, every byte a tenant writes is
// a pure function of (residence, seed, clock, MRT edits) — which is
// exactly what this harness pins.

// equivSubjectID names the home hosted both ways. The neighbors carry
// IDs that sort both before and after it, so the subject's fleet
// position is mid-pack, not an endpoint.
const equivSubjectID = "mid.subject"

// equivStart is the shared simulated epoch: a Monday 00:00 so both
// runs cross identical planning slots.
var equivStart = time.Date(2026, time.March, 2, 0, 0, 0, 0, time.UTC)

// equivCycles is the workload length in hourly planning cycles; the
// mid-workload MRT mutation lands halfway through.
const equivCycles = 24

// runEquivWorkload drives d through the shared workload: equivCycles
// fleet cycles on a lockstep hourly clock, with an MRT edit on the
// subject's controller (and, in fleet runs, different edits on the
// neighbors) after cycle equivCycles/2.
func runEquivWorkload(t *testing.T, d *Daemon, clk *simclock.SimClock, subject string) {
	t.Helper()
	ctx := context.Background()
	for cycle := 0; cycle < equivCycles; cycle++ {
		if cycle == equivCycles/2 {
			mutateMRT(t, d, subject, 1)
			for _, id := range d.Tenants() {
				if id != subject {
					mutateMRT(t, d, id, 2)
				}
			}
		}
		if err := d.Fleet().Cycle(ctx); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		clk.Advance(time.Hour)
	}
}

// mutateMRT drops the last n meta-rules from the tenant's table — a
// deterministic runtime edit exercising SetMRT persistence mid-flight.
func mutateMRT(t *testing.T, d *Daemon, id string, n int) {
	t.Helper()
	ctrl := d.Tenant(id).Controller()
	mrt := ctrl.MRT()
	if len(mrt.Rules) <= n {
		t.Fatalf("tenant %s: too few rules (%d) to drop %d", id, len(mrt.Rules), n)
	}
	mrt.Rules = mrt.Rules[:len(mrt.Rules)-n]
	if err := ctrl.SetMRT(mrt); err != nil {
		t.Fatalf("tenant %s: SetMRT: %v", id, err)
	}
}

// ledgerHash is the FNV-1a hash over the JSON serialization of a
// journal's full event stream, oldest first — the "ledger hash" the
// equivalence gate compares bit for bit.
func ledgerHash(t *testing.T, j *journal.Journal) (uint64, []journal.Event) {
	t.Helper()
	evs := j.Recent(journal.Filter{})
	h := fnv.New64a()
	for _, ev := range evs {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("marshal event: %v", err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return h.Sum64(), evs
}

// dumpAdapter snapshots every key an adapter view can see.
func dumpAdapter(a store.Adapter) map[string]string {
	out := make(map[string]string)
	for _, k := range a.Keys("") {
		v, _ := a.Get(k)
		out[k] = string(v)
	}
	return out
}

// TestFleetTenantEquivalence is the headline gate: one home, hosted
// solo and hosted as a fleet tenant, must produce the same bytes.
func TestFleetTenantEquivalence(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// (a) The single-home reference run.
			soloDir := t.TempDir()
			soloStore := filepath.Join(soloDir, "store")
			soloPersist := filepath.Join(soloDir, "persist")
			soloClk := simclock.NewSimClock(equivStart)
			solo, err := New(Options{
				Addr:            "127.0.0.1:0",
				Residence:       "prototype",
				Seed:            7,
				StoreDir:        soloStore,
				StoreBackend:    "wal",
				PersistDir:      soloPersist,
				WeeklyBudgetKWh: 165,
				Clock:           soloClk,
			})
			if err != nil {
				t.Fatalf("single-home daemon: %v", err)
			}
			runEquivWorkload(t, solo, soloClk, DefaultTenantID)
			soloHash, soloEvents := ledgerHash(t, solo.def.journal)
			if len(soloEvents) == 0 {
				t.Fatal("single-home run produced no journal events — workload is vacuous")
			}
			if err := solo.Close(); err != nil {
				t.Fatalf("close single-home daemon: %v", err)
			}

			// (b) The same home as one tenant among noisy neighbors:
			// different residences, seeds and budgets, all planning in the
			// same cycles through the same shared WAL store.
			fleetDir := t.TempDir()
			fleetStore := filepath.Join(fleetDir, "store")
			fleetPersist := filepath.Join(fleetDir, "persist")
			fleetClk := simclock.NewSimClock(equivStart)
			fd, err := New(Options{
				Addr: "127.0.0.1:0",
				Tenants: []TenantSpec{
					{ID: equivSubjectID, Residence: "prototype", Seed: 7, WeeklyBudgetKWh: 165},
					{ID: "aa-noisy1", Residence: "flat", Seed: 1001, WeeklyBudgetKWh: 90},
					{ID: "bb-noisy2", Residence: "house", Seed: 1002, WeeklyBudgetKWh: 300},
					{ID: "zz-noisy3", Residence: "prototype", Seed: 1003, WeeklyBudgetKWh: 120},
					{ID: "zz-noisy4", Residence: "flat", Seed: 1004, WeeklyBudgetKWh: 80},
				},
				FleetWorkers: workers,
				StoreDir:     fleetStore,
				StoreBackend: "wal",
				PersistDir:   fleetPersist,
				Clock:        fleetClk,
			})
			if err != nil {
				t.Fatalf("fleet daemon: %v", err)
			}
			runEquivWorkload(t, fd, fleetClk, equivSubjectID)
			fleetHash, fleetEvents := ledgerHash(t, fd.Tenant(equivSubjectID).Journal())

			// Sanity: the neighbors really were noisy — they journaled
			// their own decisions into their own rings.
			for _, id := range []string{"aa-noisy1", "zz-noisy3"} {
				if fd.Tenant(id).Journal().Len() == 0 {
					t.Fatalf("neighbor %s journaled nothing — no noise to prove isolation against", id)
				}
			}
			if err := fd.Close(); err != nil {
				t.Fatalf("close fleet daemon: %v", err)
			}

			// Equivalence 1: bit-identical ledger hashes.
			if soloHash != fleetHash {
				t.Errorf("ledger hash diverged: single-home %#x, fleet tenant %#x", soloHash, fleetHash)
			}

			// Equivalence 2: elementwise-identical journal events.
			if len(soloEvents) != len(fleetEvents) {
				t.Fatalf("journal length diverged: single-home %d events, fleet tenant %d",
					len(soloEvents), len(fleetEvents))
			}
			for i := range soloEvents {
				a, _ := json.Marshal(soloEvents[i])
				b, _ := json.Marshal(fleetEvents[i])
				if string(a) != string(b) {
					t.Fatalf("event %d diverged:\n  single-home: %s\n  fleet:       %s", i, a, b)
				}
			}

			// ... and byte-identical persisted decision logs on disk.
			soloLog, err := os.ReadFile(filepath.Join(soloPersist, "decisions.jnl"))
			if err != nil {
				t.Fatalf("read single-home decision log: %v", err)
			}
			fleetLog, err := os.ReadFile(filepath.Join(fleetPersist, "tenants", equivSubjectID, "decisions.jnl"))
			if err != nil {
				t.Fatalf("read fleet decision log: %v", err)
			}
			if string(soloLog) != string(fleetLog) {
				t.Errorf("persisted decision logs diverged: single-home %d bytes, fleet %d bytes",
					len(soloLog), len(fleetLog))
			}

			// Equivalence 3: identical recovered store state. Reopen both
			// WALs cold and compare the subject's namespaced view against
			// the single-home unprefixed dump.
			sdb, err := store.Open(store.Options{Dir: soloStore})
			if err != nil {
				t.Fatalf("reopen single-home store: %v", err)
			}
			defer sdb.Close() //nolint:errcheck
			fdb, err := store.Open(store.Options{Dir: fleetStore})
			if err != nil {
				t.Fatalf("reopen fleet store: %v", err)
			}
			defer fdb.Close() //nolint:errcheck

			soloDump := dumpAdapter(sdb)
			subjectDump := dumpAdapter(store.Namespace(fdb, tenantStorePrefix(equivSubjectID)))
			if len(soloDump) == 0 {
				t.Fatal("single-home store recovered empty — workload persisted nothing")
			}
			if len(soloDump) != len(subjectDump) {
				t.Errorf("recovered store size diverged: single-home %d keys, fleet tenant %d",
					len(soloDump), len(subjectDump))
			}
			for k, v := range soloDump {
				got, ok := subjectDump[k]
				if !ok {
					t.Errorf("recovered store: fleet tenant missing key %q", k)
					continue
				}
				if got != v {
					t.Errorf("recovered store: key %q diverged:\n  single-home: %s\n  fleet:       %s", k, v, got)
				}
			}

			// The neighbors' keys live outside the subject's namespace —
			// present in the parent, invisible through the view.
			if n := len(fdb.Keys(tenantStorePrefix("aa-noisy1"))); n == 0 {
				t.Error("neighbor aa-noisy1 persisted nothing — shared-store noise missing")
			}
			if n := len(fdb.Keys("")); n <= len(subjectDump) {
				t.Errorf("parent store holds %d keys, want more than the subject's %d", n, len(subjectDump))
			}
		})
	}
}
