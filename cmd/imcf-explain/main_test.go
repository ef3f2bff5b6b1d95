package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/persistence"
)

func writeDump(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "decisions.jnl")
	jl, err := persistence.OpenJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	slot := time.Date(2021, time.January, 9, 3, 0, 0, 0, time.UTC)
	events := []journal.Event{
		{Seq: 1, Slot: slot, Window: 0, Rule: "flat/night-heat", Owner: "alice",
			Verdict: journal.VerdictDropped, Trace: "aaaabbbbccccddddaaaabbbbccccdddd",
			EpRemainingKWh: 1.2, EnergyKWh: 4.2, FCEDelta: 0.31, FlipIter: 17},
		{Seq: 2, Slot: slot, Window: 0, Rule: "flat/hallway-light",
			Verdict: journal.VerdictExecuted, EpRemainingKWh: 1.2, EnergyKWh: 0.06},
		{Seq: 3, Slot: slot.Add(time.Hour), Window: 1, Rule: "flat/night-heat",
			Verdict: journal.VerdictDropped, EpRemainingKWh: 0.9, EnergyKWh: 4.2,
			FCEDelta: 0.28, FlipIter: journal.FlipRepair},
	}
	for _, ev := range events {
		if err := jl.AppendEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestExplainFromFile(t *testing.T) {
	path := writeDump(t)
	var out, errw bytes.Buffer
	code := run([]string{"-rule", "flat/night-heat", "-journal", path}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	text := out.String()
	for _, want := range []string{
		"rule flat/night-heat was dropped",
		"E_p remaining:  1.200 kWh",
		"last flipped at k-opt iteration 17",
		"switched off by the feasibility repair",
		"trace:          aaaabbbbccccddddaaaabbbbccccdddd",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestExplainSlotAndVerdictFilter(t *testing.T) {
	path := writeDump(t)
	var out, errw bytes.Buffer
	code := run([]string{
		"-rule", "flat/night-heat",
		"-slot", "2021-01-09T04:00:00Z",
		"-verdict", "dropped",
		"-journal", path,
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if n := strings.Count(out.String(), "rule flat/night-heat"); n != 1 {
		t.Fatalf("slot filter matched %d events, want 1:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "feasibility repair") {
		t.Errorf("wrong event selected:\n%s", out.String())
	}
}

func TestExplainJSONOutput(t *testing.T) {
	path := writeDump(t)
	var out, errw bytes.Buffer
	if code := run([]string{"-rule", "flat/hallway-light", "-journal", path, "-json"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	var evs []journal.Event
	if err := json.Unmarshal(out.Bytes(), &evs); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(evs) != 1 || evs[0].Verdict != journal.VerdictExecuted {
		t.Fatalf("unexpected events: %+v", evs)
	}
}

func TestExplainFromDaemon(t *testing.T) {
	j := journal.New(16)
	j.Append(journal.Event{Slot: time.Date(2021, time.January, 9, 3, 0, 0, 0, time.UTC),
		Rule: "flat/night-heat", Verdict: journal.VerdictDropped,
		EpRemainingKWh: 2.5, EnergyKWh: 4.2, FCEDelta: 0.5, FlipIter: journal.FlipNever})
	// The CLI appends /debug/decisions to the daemon base URL. The fake
	// daemon answers it as the real one does: the query parsed by
	// journal.ParseFilter, the matching events encoded as JSON.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/decisions", func(w http.ResponseWriter, r *http.Request) {
		f, err := journal.ParseFilter(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(j.Recent(f)) //nolint:errcheck // response committed
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var out, errw bytes.Buffer
	code := run([]string{"-rule", "flat/night-heat", "-daemon", srv.URL}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "E_p remaining:  2.500 kWh") {
		t.Errorf("daemon-mode output wrong:\n%s", out.String())
	}
}

// writeTenantDump lays out a multi-home persistence root: a default
// decisions.jnl plus per-tenant logs under tenants/<id>/.
func writeTenantDump(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	slot := time.Date(2021, time.January, 9, 3, 0, 0, 0, time.UTC)
	write := func(dir, rule string) {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		jl, err := persistence.OpenJournalFile(filepath.Join(dir, persistence.JournalFile))
		if err != nil {
			t.Fatal(err)
		}
		ev := journal.Event{Seq: 1, Slot: slot, Rule: rule,
			Verdict: journal.VerdictExecuted, EpRemainingKWh: 3.0, EnergyKWh: 0.5}
		if err := jl.AppendEvent(ev); err != nil {
			t.Fatal(err)
		}
		if err := jl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write(root, "default/rule")
	write(filepath.Join(root, "tenants", "h1"), "h1/rule")
	write(filepath.Join(root, "tenants", "h2"), "h2/rule")
	return root
}

func TestExplainTenantFromPersistenceRoot(t *testing.T) {
	root := writeTenantDump(t)

	var out, errw bytes.Buffer
	if code := run([]string{"-rule", "h2/rule", "-journal", root, "-tenant", "h2"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "rule h2/rule was executed") {
		t.Errorf("tenant log not selected:\n%s", out.String())
	}

	// Without -tenant a root directory reads the single-home log.
	out.Reset()
	if code := run([]string{"-rule", "default/rule", "-journal", root}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "rule default/rule was executed") {
		t.Errorf("root log not selected:\n%s", out.String())
	}

	// The wrong tenant's log cannot match another home's rule.
	if code := run([]string{"-rule", "h2/rule", "-journal", root, "-tenant", "h1"}, &out, &errw); code != 1 {
		t.Errorf("cross-tenant match: exit %d, want 1", code)
	}
	// -tenant needs a directory, not a file.
	if code := run([]string{"-rule", "x", "-journal", filepath.Join(root, persistence.JournalFile), "-tenant", "h1"}, &out, &errw); code != 2 {
		t.Errorf("-tenant with a file: exit %d, want 2", code)
	}
}

func TestExplainTenantFromDaemon(t *testing.T) {
	slot := time.Date(2021, time.January, 9, 3, 0, 0, 0, time.UTC)
	// A multi-home daemon decorates merged events with their tenant and
	// filters on the tenant query parameter — mimic that contract.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/decisions", func(w http.ResponseWriter, r *http.Request) {
		evs := []journal.Event{
			{Seq: 1, Slot: slot, Tenant: "h1", Rule: "shared/rule", Verdict: journal.VerdictExecuted, EpRemainingKWh: 1},
			{Seq: 1, Slot: slot, Tenant: "h2", Rule: "shared/rule", Verdict: journal.VerdictDropped, EpRemainingKWh: 2, FlipIter: journal.FlipRepair},
		}
		f, err := journal.ParseFilter(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := []journal.Event{}
		for _, ev := range evs {
			if f.Match(ev) {
				out = append(out, ev)
			}
		}
		json.NewEncoder(w).Encode(out) //nolint:errcheck // test server
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var out, errw bytes.Buffer
	code := run([]string{"-rule", "shared/rule", "-daemon", srv.URL, "-tenant", "h2"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	text := out.String()
	if !strings.Contains(text, "home:           h2") || strings.Contains(text, "home:           h1") {
		t.Errorf("tenant filter not applied server-side:\n%s", text)
	}
	if !strings.Contains(text, "feasibility repair") {
		t.Errorf("wrong event selected:\n%s", text)
	}
}

func TestExplainExitCodes(t *testing.T) {
	path := writeDump(t)
	var out, errw bytes.Buffer
	if code := run([]string{"-journal", path}, &out, &errw); code != 2 {
		t.Errorf("missing -rule: exit %d, want 2", code)
	}
	if code := run([]string{"-rule", "x"}, &out, &errw); code != 2 {
		t.Errorf("no source: exit %d, want 2", code)
	}
	if code := run([]string{"-rule", "x", "-journal", path, "-daemon", "http://x"}, &out, &errw); code != 2 {
		t.Errorf("both sources: exit %d, want 2", code)
	}
	if code := run([]string{"-rule", "no/such-rule", "-journal", path}, &out, &errw); code != 1 {
		t.Errorf("no match: exit %d, want 1", code)
	}
	if code := run([]string{"-rule", "x", "-slot", "yesterday", "-journal", path}, &out, &errw); code != 2 {
		t.Errorf("bad slot: exit %d, want 2", code)
	}
	if code := run([]string{"-rule", "x", "-verdict", "maybe", "-journal", path}, &out, &errw); code != 2 {
		t.Errorf("bad verdict: exit %d, want 2", code)
	}
}
