package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/imcf/imcf/internal/faultfs"
	"github.com/imcf/imcf/internal/fleet"
	"github.com/imcf/imcf/internal/store"
)

// The multi-tenant crash suite extends the kill-at-every-failpoint
// harness to the fleet: N tenants writing through their own store
// namespaces, dispatched by the fleet scheduler, with a crash injected
// at EVERY file operation of the shared filesystem. The invariant is
// per-tenant crash consistency — a crash mid-fleet-cycle must leave
// every tenant at a point in its OWN model history (no earlier than
// its last acknowledged step), and must never leak one tenant's keys
// into another's namespace.
//
// The physical layout is the one the daemon wires: every tenant is a
// store.Namespace view over one shared group-commit DB, so a global log
// prefix must induce a valid per-tenant prefix for each home.
//
// Worker count 1 gives the deterministic reference sweep; worker
// counts > 1 interleave tenants' commits, where group-commit
// coalescing makes the op numbering nondeterministic — there the
// sweep tolerates failpoints that never fire, but every crash that
// does fire must still recover per-tenant consistent state.

var fleetCrashTenants = []string{"ha", "hb", "hc"}

const fleetCrashCycles = 4

// fleetCrashMRT is the versioned MRT record each cycle persists.
type fleetCrashMRT struct {
	Tenant  string `json:"tenant"`
	Version int    `json:"version"`
}

// fleetCrashStep is one tenant's planning-cycle write, the traffic the
// daemon puts on its store: the controller's versioned imcf/mrt
// PutJSON, then the degraded-mode Probe.
func fleetCrashStep(view store.Adapter, id string, cycle int) error {
	if err := view.PutJSON("imcf/mrt", fleetCrashMRT{Tenant: id, Version: cycle}); err != nil {
		return err
	}
	return view.Probe()
}

// fleetCrashModel replays one tenant's model history: the encoded
// state after each cycle's PutJSON (the Probe has no data effect).
// Index 0 is the empty store, index k+1 the state once cycle k's step
// was acknowledged.
func fleetCrashModel(id string) []string {
	m := map[string]string{}
	states := []string{encodeTenantState(m)}
	for cycle := 0; cycle < fleetCrashCycles; cycle++ {
		b, err := json.Marshal(fleetCrashMRT{Tenant: id, Version: cycle})
		if err != nil {
			panic(err)
		}
		m["imcf/mrt"] = string(b)
		states = append(states, encodeTenantState(m))
	}
	return states
}

// encodeTenantState folds a state map into a canonical comparable
// string.
func encodeTenantState(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, m[k])
	}
	return b.String()
}

// encodeAdapter snapshots an adapter view into the same canonical
// encoding.
func encodeAdapter(a store.Adapter) string {
	m := make(map[string]string)
	for _, k := range a.Keys("") {
		v, _ := a.Get(k)
		m[k] = string(v)
	}
	return encodeTenantState(m)
}

// runFleetCrashWorkload opens per-tenant views with openViews, drives
// the crash workload through a fleet scheduler, and reports each
// tenant's highest acknowledged model index (-1: nothing acked).
func runFleetCrashWorkload(openViews func() (map[string]store.Adapter, func() error, error), workers int, dead func() bool) map[string]int {
	acked := make(map[string]int, len(fleetCrashTenants))
	for _, id := range fleetCrashTenants {
		acked[id] = 0 // the empty state is trivially durable
	}
	views, closeAll, err := openViews()
	if err != nil {
		return acked
	}

	cycle := 0
	stepErrs := make([]error, len(fleetCrashTenants))
	members := make([]fleet.Member, len(fleetCrashTenants))
	for i, id := range fleetCrashTenants {
		i, id := i, id
		members[i] = fleet.Member{ID: id, Step: func(context.Context) error {
			err := fleetCrashStep(views[id], id, cycle)
			stepErrs[i] = err
			return err
		}}
	}
	sched, err := fleet.New(members, fleet.Options{Workers: workers})
	if err != nil {
		closeAll() //nolint:errcheck
		return acked
	}

	for cycle = 0; cycle < fleetCrashCycles; cycle++ {
		sched.Cycle(context.Background()) //nolint:errcheck // per-tenant errors tracked via stepErrs
		for i, id := range fleetCrashTenants {
			if stepErrs[i] == nil {
				acked[id] = cycle + 1
			}
		}
		if dead() {
			break
		}
	}
	closeAll() //nolint:errcheck // the close may be the crash point
	return acked
}

// checkFleetRecovery verifies every tenant's recovered view against
// its own model history, bounded below by its acknowledged index.
func checkFleetRecovery(t *testing.T, n, workers int, views map[string]store.Adapter, acked map[string]int) {
	t.Helper()
	for _, id := range fleetCrashTenants {
		states := fleetCrashModel(id)
		got := encodeAdapter(views[id])
		lo := acked[id]
		found := false
		for j := lo; j < len(states); j++ {
			if got == states[j] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("failpoint %d (workers=%d): tenant %s recovered %q not in valid states[%d:] %q",
				n, workers, id, got, lo, states[lo:])
		}
	}
}

// TestFleetCrashSharedWAL kills the fleet at every failpoint of a
// shared group-commit WAL hosting all tenants behind namespaces.
func TestFleetCrashSharedWAL(t *testing.T) {
	open := func(fs faultfs.FS) (map[string]store.Adapter, func() error, error) {
		db, err := store.Open(store.Options{Dir: "/db", FS: fs})
		if err != nil {
			return nil, nil, err
		}
		views := make(map[string]store.Adapter, len(fleetCrashTenants))
		for _, id := range fleetCrashTenants {
			views[id] = store.Namespace(db, tenantStorePrefix(id))
		}
		return views, db.Close, nil
	}

	for _, workers := range []int{1, 4} {
		for _, tear := range []uint64{0, 0xBEEF} {
			t.Run(fmt.Sprintf("workers=%d/tear=%#x", workers, tear), func(t *testing.T) {
				// Fault-free run to count the failpoints.
				faulty := faultfs.NewFaulty(faultfs.NewMemFS(), nil)
				runFleetCrashWorkload(func() (map[string]store.Adapter, func() error, error) {
					return open(faulty)
				}, workers, faulty.Dead)
				total := faulty.Ops()
				if total < 20 {
					t.Fatalf("suspiciously few failpoints: %d", total)
				}

				for n := 0; n < total; n++ {
					mem := faultfs.NewMemFS()
					faulty := faultfs.NewFaulty(mem, faultfs.CrashAt(n))
					acked := runFleetCrashWorkload(func() (map[string]store.Adapter, func() error, error) {
						return open(faulty)
					}, workers, faulty.Dead)
					if !faulty.Dead() {
						if workers == 1 {
							t.Fatalf("failpoint %d never fired (ops=%d)", n, faulty.Ops())
						}
						// Concurrent group commits coalesce syncs, so late
						// failpoints may not exist on this interleaving.
						continue
					}

					// Power loss, reboot, reopen.
					if tear == 0 {
						mem.Crash()
					} else {
						mem.CrashTearing(tear ^ uint64(n))
					}
					db, err := store.Open(store.Options{Dir: "/db", FS: mem})
					if err != nil {
						t.Fatalf("failpoint %d: reopen: %v", n, err)
					}
					views := make(map[string]store.Adapter, len(fleetCrashTenants))
					for _, id := range fleetCrashTenants {
						views[id] = store.Namespace(db, tenantStorePrefix(id))
					}
					checkFleetRecovery(t, n, workers, views, acked)

					// No cross-tenant leakage: every recovered key lives
					// under some registered tenant's namespace.
					for _, k := range db.Keys("") {
						owned := false
						for _, id := range fleetCrashTenants {
							if strings.HasPrefix(k, tenantStorePrefix(id)) {
								owned = true
								break
							}
						}
						if !owned {
							t.Fatalf("failpoint %d: recovered key %q outside every tenant namespace", n, k)
						}
					}
					if err := db.Close(); err != nil {
						t.Fatalf("failpoint %d: close: %v", n, err)
					}
				}
			})
		}
	}
}
