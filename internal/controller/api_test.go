package controller

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/imcf/imcf/internal/rules"
	"github.com/imcf/imcf/internal/simclock"
)

func apiServer(t *testing.T, mut func(*Config)) (*Controller, *httptest.Server) {
	t.Helper()
	c := newController(t, mut)
	srv := httptest.NewServer(API(c))
	t.Cleanup(srv.Close)
	return c, srv
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body any, v any) int {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestAPIItems(t *testing.T) {
	_, srv := apiServer(t, nil)
	var items []map[string]any
	if code := getJSON(t, srv.URL+"/rest/items", &items); code != http.StatusOK {
		t.Fatalf("GET items = %d", code)
	}
	if len(items) != 6 {
		t.Fatalf("items = %d, want 6 (3 zones × 2 devices)", len(items))
	}
	for _, it := range items {
		if it["id"] == "" || it["class"] == "" {
			t.Errorf("item missing fields: %v", it)
		}
	}
}

func TestAPICommandAndPlan(t *testing.T) {
	c, srv := apiServer(t, nil)

	// Manual command before any plan: allowed.
	code := postJSON(t, srv.URL+"/rest/items/proto/z0/hvac/command", map[string]float64{"value": 25}, nil)
	if code != http.StatusOK {
		t.Fatalf("command = %d", code)
	}
	_, st, _ := c.Registry().Get("proto/z0/hvac")
	if on, sp, _, _ := st.Snapshot(); !on || sp != 25 {
		t.Errorf("manual command not applied: on=%v sp=%v", on, sp)
	}

	// No plan yet.
	if code := getJSON(t, srv.URL+"/rest/plan", nil); code != http.StatusNotFound {
		t.Errorf("GET plan before run = %d", code)
	}

	// Run a plan via the API.
	var report StepReport
	if code := postJSON(t, srv.URL+"/rest/plan/run", nil, &report); code != http.StatusOK {
		t.Fatalf("plan/run = %d", code)
	}
	if report.Budget <= 0 {
		t.Errorf("report = %+v", report)
	}
	if code := getJSON(t, srv.URL+"/rest/plan", &report); code != http.StatusOK {
		t.Errorf("GET plan after run = %d", code)
	}

	var summary Summary
	if code := getJSON(t, srv.URL+"/rest/summary", &summary); code != http.StatusOK || summary.Steps != 1 {
		t.Errorf("summary = %d %+v", code, summary)
	}
}

func TestAPICommandBlockedDevice(t *testing.T) {
	c, srv := apiServer(t, func(cfg *Config) { cfg.WeeklyBudget = 1e-9 })
	if _, err := c.Step(); err != nil { // drops and blocks the night-heat device
		t.Fatal(err)
	}
	code := postJSON(t, srv.URL+"/rest/items/proto/z0/hvac/command", map[string]float64{"value": 30}, nil)
	if code != http.StatusForbidden {
		t.Errorf("command to blocked device = %d, want 403", code)
	}

	var fw map[string]any
	if code := getJSON(t, srv.URL+"/rest/firewall", &fw); code != http.StatusOK {
		t.Fatalf("GET firewall = %d", code)
	}
	ruleList, _ := fw["rules"].([]any)
	if len(ruleList) == 0 || !strings.Contains(ruleList[0].(string), "-j DROP") {
		t.Errorf("firewall rules = %v", fw["rules"])
	}
}

func TestAPICommandUnknownDevice(t *testing.T) {
	_, srv := apiServer(t, nil)
	code := postJSON(t, srv.URL+"/rest/items/nope/command", map[string]float64{"value": 1}, nil)
	if code != http.StatusNotFound {
		t.Errorf("unknown device command = %d", code)
	}
}

func TestAPIMRTRoundTrip(t *testing.T) {
	c, srv := apiServer(t, nil)
	var mrt rules.MRT
	if code := getJSON(t, srv.URL+"/rest/mrt", &mrt); code != http.StatusOK {
		t.Fatalf("GET mrt = %d", code)
	}
	if len(mrt.Rules) != 10 {
		t.Fatalf("mrt has %d rules", len(mrt.Rules))
	}

	// Update: keep only the budget rule and one convenience rule.
	update := rules.MRT{Rules: []rules.MetaRule{mrt.Rules[0], mrt.Rules[9]}}
	if code := postJSON(t, srv.URL+"/rest/mrt", update, nil); code != http.StatusOK {
		t.Fatalf("POST mrt = %d", code)
	}
	if got := len(c.MRT().Rules); got != 2 {
		t.Errorf("controller MRT has %d rules after update", got)
	}

	// Invalid update rejected.
	bad := rules.MRT{Rules: []rules.MetaRule{{ID: "x", Action: rules.ActionSetLight, Value: 500}}}
	if code := postJSON(t, srv.URL+"/rest/mrt", bad, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("invalid MRT accepted: %d", code)
	}

	// Malformed JSON rejected.
	resp, err := http.Post(srv.URL+"/rest/mrt", "application/json", strings.NewReader("{oops"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed MRT accepted: %d", resp.StatusCode)
	}
}

func TestAPIMRTConflicts(t *testing.T) {
	c, srv := apiServer(t, nil)
	var conflicts []rules.Conflict
	if code := getJSON(t, srv.URL+"/rest/mrt/conflicts", &conflicts); code != http.StatusOK {
		t.Fatalf("conflicts = %d", code)
	}
	if len(conflicts) != 0 {
		t.Errorf("prototype MRT reported conflicts: %+v", conflicts)
	}

	// Install a clashing pair and re-check.
	mrt := c.MRT()
	mrt.Rules = append(mrt.Rules, rules.MetaRule{
		ID: "clash", Name: "Cold Evening", Window: simclock.TimeWindow{StartHour: 18, EndHour: 23},
		Action: rules.ActionSetTemperature, Value: 17, Zone: 0, Owner: "Father",
	})
	if err := c.SetMRT(mrt); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, srv.URL+"/rest/mrt/conflicts", &conflicts); code != http.StatusOK {
		t.Fatalf("conflicts = %d", code)
	}
	if len(conflicts) == 0 {
		t.Fatal("clash not reported")
	}
	if conflicts[0].Kind != rules.ConflictClash {
		t.Errorf("kind = %v", conflicts[0].Kind)
	}
}

func TestDashboardServed(t *testing.T) {
	_, srv := apiServer(t, nil)
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET / = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"IMCF", "/rest/items", "/rest/mrt/conflicts", "run EP now"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}

// postRaw posts body and returns the status code.
func postRaw(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestAPICommandRejectsOversizedBody(t *testing.T) {
	c, srv := apiServer(t, nil)
	url := srv.URL + "/rest/items/proto/z0/hvac/command"
	huge := `{"value":24,"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	if code := postRaw(t, url, huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized command = %d, want 413", code)
	}
	_, st, _ := c.Registry().Get("proto/z0/hvac")
	if on, _, _, _ := st.Snapshot(); on {
		t.Error("oversized command reached the device")
	}
	if code := postRaw(t, url, `{"value":24}`); code != http.StatusOK {
		t.Fatalf("normal command = %d, want 200", code)
	}
}

func TestAPIMRTRejectsOversizedBody(t *testing.T) {
	c, srv := apiServer(t, nil)
	mrt := c.MRT()
	padded := rules.MRT{Rules: append([]rules.MetaRule(nil), mrt.Rules...)}
	padded.Rules[1].Name = strings.Repeat("x", maxBodyBytes)
	huge, err := json.Marshal(padded)
	if err != nil {
		t.Fatal(err)
	}
	if code := postRaw(t, srv.URL+"/rest/mrt", string(huge)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized MRT = %d, want 413", code)
	}
	if got := c.MRT().Rules[1].Name; got != mrt.Rules[1].Name {
		t.Fatalf("oversized MRT applied: rule name now %d bytes", len(got))
	}
	if code := postJSON(t, srv.URL+"/rest/mrt", mrt, nil); code != http.StatusOK {
		t.Fatalf("normal MRT = %d, want 200", code)
	}
}
