// Smarthome: the full IMCF stack end to end. It boots the three-person
// prototype residence with emulated Daikin/Hue devices, wires the HTTP
// binding through the meta-control firewall, runs the controller for two
// simulated winter days, exercises the REST API, and shows that dropped
// meta-rules produce iptables-style block rules and zero device traffic.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"github.com/imcf/imcf/internal/controller"
	"github.com/imcf/imcf/internal/devicesim"
	"github.com/imcf/imcf/internal/firewall"
	"github.com/imcf/imcf/internal/home"
	"github.com/imcf/imcf/internal/simclock"
)

func main() {
	res, err := home.Prototype(42)
	if err != nil {
		log.Fatal(err)
	}

	// Start one emulated device per Thing and map the endpoints.
	endpoints := make(map[string]string)
	daikins := make(map[string]*devicesim.Daikin)
	hues := make(map[string]*devicesim.Hue)
	for _, z := range res.Zones {
		d, err := devicesim.StartDaikin()
		if err != nil {
			log.Fatal(err)
		}
		defer d.Close()
		daikins[z.HVAC.ID] = d
		endpoints[z.HVAC.ID] = d.URL()

		h, err := devicesim.StartHue()
		if err != nil {
			log.Fatal(err)
		}
		defer h.Close()
		hues[z.Light.ID] = h
		endpoints[z.Light.ID] = h.URL()
	}
	fmt.Printf("emulating %d devices on loopback HTTP\n", len(endpoints))

	clock := simclock.NewSimClock(time.Date(2015, time.January, 12, 0, 0, 0, 0, time.UTC))
	fw := firewall.New()
	c, err := controller.New(controller.Config{
		Residence:     res,
		Clock:         clock,
		WeeklyBudget:  home.PrototypeWeeklyBudget,
		CarryCapHours: 5.5,
		Firewall:      fw,
		Binding:       &controller.HTTPBinding{Endpoints: endpoints, Firewall: fw},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Two simulated days of hourly EP cycles.
	for i := 0; i < 48; i++ {
		report, err := c.Step()
		if err != nil {
			log.Fatal(err)
		}
		if len(report.Dropped) > 0 {
			fmt.Printf("%s  budget %.2f kWh: executed %d, dropped %v\n",
				report.Time.Format("Jan 02 15:04"), report.Budget, len(report.Executed), report.Dropped)
		}
		clock.Advance(time.Hour)
	}

	fmt.Println("\nactive firewall rules (iptables syntax):")
	for _, r := range fw.Rules() {
		fmt.Println(" ", r)
	}
	allowed, dropped := fw.Counters()
	fmt.Printf("firewall: %d flows allowed, %d dropped\n", allowed, dropped)

	fmt.Println("\ndevice states:")
	for id, d := range daikins {
		power, _, temp := d.State()
		fmt.Printf("  %-22s power=%-5v setpoint=%.1f°C commands=%d\n", id, power, temp, d.Commands())
	}
	for id, h := range hues {
		st := h.State()
		fmt.Printf("  %-22s on=%-5v bri=%.0f commands=%d\n", id, st.On, st.Bri, h.Commands())
	}

	// The REST API the mobile APP would call.
	srv := httptest.NewServer(controller.API(c))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/rest/summary")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var summary controller.Summary
	if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsummary after %d cycles: F_E=%.2f kWh, F_CE=%s\n",
		summary.Steps, summary.Energy.KWh(), summary.ConvenienceError)
	for owner, ce := range summary.PerOwner {
		fmt.Printf("  %-9s F_CE=%s\n", owner, ce)
	}
}
