package controller

import (
	"errors"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/device"
	"github.com/imcf/imcf/internal/devicesim"
	"github.com/imcf/imcf/internal/firewall"
	"github.com/imcf/imcf/internal/home"
	"github.com/imcf/imcf/internal/simclock"
	"github.com/imcf/imcf/internal/units"
)

func TestHTTPBindingDrivesEmulatedDevices(t *testing.T) {
	daikin, err := devicesim.StartDaikin()
	if err != nil {
		t.Fatal(err)
	}
	defer daikin.Close()
	hue, err := devicesim.StartHue()
	if err != nil {
		t.Fatal(err)
	}
	defer hue.Close()

	hvac := device.Descriptor{ID: "d1", Class: device.ClassHVAC, Rating: 600 * units.Watt, Addr: "192.168.0.5"}
	light := device.Descriptor{ID: "l1", Class: device.ClassLight, Rating: 55 * units.Watt, Addr: "192.168.0.6"}
	fw := firewall.New()
	b := &HTTPBinding{
		Endpoints: map[string]string{"d1": daikin.URL(), "l1": hue.URL()},
		Firewall:  fw,
	}

	if err := b.Apply(hvac, 25); err != nil {
		t.Fatal(err)
	}
	if power, mode, temp := daikin.State(); !power || mode != 3 || temp != 25 {
		t.Errorf("daikin state = %v %d %v", power, mode, temp)
	}
	if err := b.Apply(light, 40); err != nil {
		t.Fatal(err)
	}
	if st := hue.State(); !st.On || st.Bri != 40 {
		t.Errorf("hue state = %+v", st)
	}
	if err := b.TurnOff(hvac); err != nil {
		t.Fatal(err)
	}
	if power, _, _ := daikin.State(); power {
		t.Error("daikin still on after TurnOff")
	}
	if err := b.TurnOff(light); err != nil {
		t.Fatal(err)
	}
	if st := hue.State(); st.On {
		t.Error("hue still on after TurnOff")
	}
}

func TestHTTPBindingFirewallBlocksTraffic(t *testing.T) {
	daikin, err := devicesim.StartDaikin()
	if err != nil {
		t.Fatal(err)
	}
	defer daikin.Close()

	hvac := device.Descriptor{ID: "d1", Class: device.ClassHVAC, Rating: 600 * units.Watt, Addr: "192.168.0.5"}
	fw := firewall.New()
	b := &HTTPBinding{Endpoints: map[string]string{"d1": daikin.URL()}, Firewall: fw}

	fw.BlockTraced(hvac.Addr, "EP drop", "trace-1")
	err = b.Apply(hvac, 25)
	var blocked *BlockedError
	if !errors.Is(err, ErrBlocked) || !errors.As(err, &blocked) {
		t.Fatalf("Apply through blocked firewall = %v", err)
	}
	if blocked.Reason != "EP drop" || blocked.Trace != "trace-1" {
		t.Fatalf("blocked error carries reason %q trace %q, want the block's", blocked.Reason, blocked.Trace)
	}
	// Crucially: the device received NO traffic.
	if daikin.Commands() != 0 {
		t.Errorf("blocked device received %d commands", daikin.Commands())
	}
	_, dropped := fw.Counters()
	if dropped != 1 {
		t.Errorf("firewall dropped = %d", dropped)
	}
}

func TestHTTPBindingMissingEndpoint(t *testing.T) {
	b := &HTTPBinding{Endpoints: map[string]string{}}
	dev := device.Descriptor{ID: "ghost", Class: device.ClassHVAC, Addr: "10.0.0.9"}
	if err := b.Apply(dev, 20); err == nil {
		t.Error("missing endpoint accepted")
	}
}

func TestHTTPBindingRejectedCommand(t *testing.T) {
	daikin, err := devicesim.StartDaikin()
	if err != nil {
		t.Fatal(err)
	}
	defer daikin.Close()
	b := &HTTPBinding{Endpoints: map[string]string{"d1": daikin.URL()}}
	dev := device.Descriptor{ID: "d1", Class: device.ClassHVAC, Addr: "10.0.0.1"}
	// Setpoint outside the Daikin's accepted range → HTTP 400 → error.
	if err := b.Apply(dev, 99); err == nil {
		t.Error("out-of-range setpoint accepted")
	}
}

func TestControllerEndToEndOverHTTP(t *testing.T) {
	// Full integration: EP decisions reach emulated devices over real
	// HTTP, and dropped rules produce zero device traffic.
	res, err := home.Prototype(42)
	if err != nil {
		t.Fatal(err)
	}
	endpoints := make(map[string]string)
	var daikins []*devicesim.Daikin
	var hues []*devicesim.Hue
	for _, z := range res.Zones {
		d, err := devicesim.StartDaikin()
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		daikins = append(daikins, d)
		endpoints[z.HVAC.ID] = d.URL()

		h, err := devicesim.StartHue()
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		hues = append(hues, h)
		endpoints[z.Light.ID] = h.URL()
	}

	clock := simclock.NewSimClock(time.Date(2015, time.January, 10, 20, 0, 0, 0, time.UTC))
	fw := firewall.New()
	cfg := Config{
		Residence:    res,
		Clock:        clock,
		WeeklyBudget: home.PrototypeWeeklyBudget,
		Firewall:     fw,
		Binding:      &HTTPBinding{Endpoints: endpoints, Firewall: fw},
	}
	cfg.Planner.Seed = 4
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// 20:00 in January: father evening heat + lights, mother evening
	// heat, daughter night lights are active.
	report, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Executed) == 0 {
		t.Fatalf("nothing executed at winter evening: %+v", report)
	}
	// Every executed rule's device actually received a command.
	totalCommands := 0
	for _, d := range daikins {
		totalCommands += d.Commands()
	}
	for _, h := range hues {
		totalCommands += h.Commands()
	}
	if totalCommands < len(report.Executed) {
		t.Errorf("%d device commands for %d executed rules", totalCommands, len(report.Executed))
	}
	// Hue in zone 0 should be on at 40 if the father's light rule ran.
	for _, id := range report.Executed {
		if id == "proto/father/evening-lights" {
			if st := hues[0].State(); !st.On || st.Bri != 40 {
				t.Errorf("father's light state = %+v", st)
			}
		}
	}
}
