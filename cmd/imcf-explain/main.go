// Command imcf-explain answers "why was rule R dropped (or executed)
// at slot S?" from the Energy Planner's decision-provenance journal —
// either a live daemon's /debug/decisions endpoint or a persisted
// decisions.jnl dump.
//
// Usage:
//
//	imcf-explain -rule ID [-slot RFC3339] [-verdict executed|dropped]
//	             [-daemon http://host:8089 | -journal path/decisions.jnl]
//	             [-tenant HOME] [-limit N] [-json]
//
// Exactly one of -daemon or -journal selects the source. The answer
// cites the verdict, the E_p budget remaining when the planner decided,
// the rule's energy cost, the convenience-error delta its drop cost,
// and the k-opt iteration that last flipped the bit.
//
// Against a multi-home daemon, -tenant selects one home's decisions
// (the server merges all tenants by default). Against persisted dumps,
// -journal may name a persistence root directory instead of a file:
// the command then reads <dir>/decisions.jnl, or with -tenant the
// home's own <dir>/tenants/<HOME>/decisions.jnl.
//
// Naming note: cmd/imcf-trace is the synthetic sensor-trace workload
// generator and is unrelated to the causal tracing this command reads;
// trace IDs here are the traceparent IDs minted by the SDK and
// propagated through the relay and controller.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/persistence"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: exit 0 on success, 1 when no event
// matches, 2 on usage or source errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imcf-explain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rule       = fs.String("rule", "", "meta-rule ID to explain (required)")
		slotStr    = fs.String("slot", "", "slot time, RFC 3339 (empty: all slots)")
		verdictStr = fs.String("verdict", "", "filter: executed or dropped")
		daemonURL  = fs.String("daemon", "", "metrics base URL of a live imcfd (e.g. http://127.0.0.1:8089)")
		jnlPath    = fs.String("journal", "", "path to a persisted decisions.jnl, or a persistence root directory")
		tenant     = fs.String("tenant", "", "home ID on a multi-tenant daemon or persistence root (empty: all homes / the single-home log)")
		limit      = fs.Int("limit", 0, "at most N most recent events (0: all)")
		asJSON     = fs.Bool("json", false, "emit matching events as JSON instead of prose")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rule == "" {
		fmt.Fprintln(stderr, "imcf-explain: -rule is required")
		fs.Usage()
		return 2
	}
	if (*daemonURL == "") == (*jnlPath == "") {
		fmt.Fprintln(stderr, "imcf-explain: exactly one of -daemon or -journal must be set")
		return 2
	}

	f := journal.Filter{Rule: *rule, Limit: *limit}
	if *slotStr != "" {
		at, err := time.Parse(time.RFC3339, *slotStr)
		if err != nil {
			fmt.Fprintf(stderr, "imcf-explain: bad -slot: %v\n", err)
			return 2
		}
		f.Slot = at
	}
	if *verdictStr != "" {
		v, err := journal.ParseVerdict(*verdictStr)
		if err != nil {
			fmt.Fprintf(stderr, "imcf-explain: %v\n", err)
			return 2
		}
		f.Verdict = v
	}

	var (
		evs []journal.Event
		err error
	)
	if *daemonURL != "" {
		// Server-side: a multi-home daemon filters its merged stream by
		// the serving-time tenant decoration.
		f.Tenant = *tenant
		evs, err = fromDaemon(*daemonURL, f)
	} else {
		// Persisted logs are per-home and carry no tenant field (each
		// holds exactly what a single-home daemon would write), so here
		// the tenant selects which home's log to open.
		path, perr := resolveJournalPath(*jnlPath, *tenant)
		if perr != nil {
			fmt.Fprintf(stderr, "imcf-explain: %v\n", perr)
			return 2
		}
		evs, err = fromFile(path, f)
	}
	if err != nil {
		fmt.Fprintf(stderr, "imcf-explain: %v\n", err)
		return 2
	}
	if len(evs) == 0 {
		fmt.Fprintf(stderr, "imcf-explain: no journaled decision matches rule %q\n", *rule)
		return 1
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(evs) //nolint:errcheck // stdout write
		return 0
	}
	for _, ev := range evs {
		explain(stdout, ev)
	}
	return 0
}

// resolveJournalPath maps -journal/-tenant onto a concrete log file:
// a file path is used as-is, a persistence root directory resolves to
// its single-home decisions.jnl or, with a tenant, to the home's
// tenants/<id>/decisions.jnl.
func resolveJournalPath(path, tenant string) (string, error) {
	info, err := os.Stat(path)
	switch {
	case err == nil && info.IsDir():
		if tenant != "" {
			return filepath.Join(path, "tenants", tenant, persistence.JournalFile), nil
		}
		return filepath.Join(path, persistence.JournalFile), nil
	case tenant != "":
		return "", fmt.Errorf("-tenant with -journal requires a persistence root directory, not a file (%s)", path)
	default:
		return path, nil
	}
}

// fromDaemon queries a live daemon's /debug/decisions with the filter
// as query parameters, so filtering happens server-side.
func fromDaemon(base string, f journal.Filter) ([]journal.Event, error) {
	q := url.Values{}
	q.Set("rule", f.Rule)
	if f.Tenant != "" {
		q.Set("tenant", f.Tenant)
	}
	if f.Verdict != 0 {
		q.Set("verdict", f.Verdict.String())
	}
	if !f.Slot.IsZero() {
		q.Set("slot", f.Slot.Format(time.RFC3339))
	}
	if f.Limit > 0 {
		q.Set("limit", fmt.Sprint(f.Limit))
	}
	u := base + "/debug/decisions?" + q.Encode()
	resp, err := http.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) //nolint:errcheck // best-effort detail
		return nil, fmt.Errorf("GET %s: %d: %s", u, resp.StatusCode, body)
	}
	var evs []journal.Event
	if err := json.NewDecoder(resp.Body).Decode(&evs); err != nil {
		return nil, fmt.Errorf("decode %s: %w", u, err)
	}
	return evs, nil
}

// fromFile replays a persisted journal and filters client-side.
func fromFile(path string, f journal.Filter) ([]journal.Event, error) {
	jl, err := persistence.OpenJournalFile(path, nil)
	if err != nil {
		return nil, err
	}
	defer jl.Close() //nolint:errcheck // read-only use
	var evs []journal.Event
	if _, err := jl.Replay(func(ev journal.Event) {
		if f.Match(ev) {
			evs = append(evs, ev)
		}
	}); err != nil {
		return nil, err
	}
	if f.Limit > 0 && len(evs) > f.Limit {
		evs = evs[len(evs)-f.Limit:]
	}
	return evs, nil
}

// explain renders one decision as prose, citing the planner state that
// produced it.
func explain(w io.Writer, ev journal.Event) {
	fmt.Fprintf(w, "rule %s was %s at slot %s (planning window %d)\n",
		ev.Rule, ev.Verdict, ev.Slot.Format(time.RFC3339), ev.Window)
	if ev.Tenant != "" {
		fmt.Fprintf(w, "  home:           %s\n", ev.Tenant)
	}
	if ev.Owner != "" {
		fmt.Fprintf(w, "  owner:          %s\n", ev.Owner)
	}
	fmt.Fprintf(w, "  E_p remaining:  %.3f kWh at decision time\n", ev.EpRemainingKWh)
	fmt.Fprintf(w, "  energy cost:    %.3f kWh per window\n", ev.EnergyKWh)
	if ev.Verdict == journal.VerdictDropped {
		fmt.Fprintf(w, "  F_CE delta:     dropping it added %.4f to the convenience error\n", ev.FCEDelta)
	}
	fmt.Fprintf(w, "  k-opt:          %s\n", ev.FlipIterString())
	if ev.Trace != "" {
		fmt.Fprintf(w, "  trace:          %s\n", ev.Trace)
	}
	switch {
	case ev.Verdict == journal.VerdictDropped && ev.FlipIter == journal.FlipRepair:
		fmt.Fprintf(w, "  why: the candidate plan exceeded the amortized budget, and the feasibility repair switched this rule off (%.3f kWh remained).\n", ev.EpRemainingKWh)
	case ev.Verdict == journal.VerdictDropped:
		fmt.Fprintf(w, "  why: keeping it was not worth %.3f kWh against the %.3f kWh E_p remaining — the search left it off (%s).\n",
			ev.EnergyKWh, ev.EpRemainingKWh, ev.FlipIterString())
	default:
		fmt.Fprintf(w, "  why: the plan fit the budget with %.3f kWh E_p remaining, so the rule ran.\n", ev.EpRemainingKWh)
	}
}
