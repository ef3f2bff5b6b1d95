// Package controller implements the IMCF Local Controller (LC): the
// openHAB-like service that registers Things, actuates them through
// bindings, runs the Energy Planner each time it is stepped, enforces plan
// decisions through the meta-control firewall, persists configuration in
// the embedded store, and exposes a REST API for apps.
package controller

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/imcf/imcf/internal/device"
	"github.com/imcf/imcf/internal/devicesim"
	"github.com/imcf/imcf/internal/firewall"
)

// ErrBlocked is returned when the firewall drops a device command flow,
// as a *BlockedError that matches it under errors.Is.
var ErrBlocked = errors.New("controller: flow blocked by meta-control firewall")

// BlockedError is a device command refused by the firewall. It names the
// block the flow hit: its reason and the trace ID of the planning cycle
// that installed it ("" for untraced blocks), so a refused actuation can
// be followed back to the decision that caused it.
type BlockedError struct {
	Addr   string
	Reason string
	Trace  string
}

func (e *BlockedError) Error() string { return ErrBlocked.Error() + ": " + e.Addr }

// Unwrap makes a BlockedError match ErrBlocked.
func (e *BlockedError) Unwrap() error { return ErrBlocked }

// checkFlow passes a device flow through fw (when set), returning a
// *BlockedError if the firewall drops it.
func checkFlow(fw *firewall.Firewall, addr string) error {
	if fw == nil {
		return nil
	}
	if d, block := fw.Check(addr); d == firewall.Drop {
		return &BlockedError{Addr: addr, Reason: block.Reason, Trace: block.Trace}
	}
	return nil
}

// Binding actuates devices. It is the controller's abstraction over
// openHAB's binding ecosystem: HTTPBinding drives the emulated Daikin
// and Hue endpoints over real HTTP ("extended mode"); DirectBinding
// mutates in-memory device state, used by fast simulations.
type Binding interface {
	// Apply powers the device and sets its output value (temperature
	// setpoint or dimmer level).
	Apply(dev device.Descriptor, value float64) error
	// TurnOff powers the device down.
	TurnOff(dev device.Descriptor) error
}

// DirectBinding actuates devices by mutating their registry state.
type DirectBinding struct {
	Registry *device.Registry
	Firewall *firewall.Firewall
	Clock    interface{ Now() time.Time }
}

// Apply implements Binding.
func (b *DirectBinding) Apply(dev device.Descriptor, value float64) error {
	if err := checkFlow(b.Firewall, dev.Addr); err != nil {
		return err
	}
	_, st, ok := b.Registry.Get(dev.ID)
	if !ok {
		return fmt.Errorf("controller: unknown device %q", dev.ID)
	}
	st.Apply(value, b.now())
	return nil
}

// TurnOff implements Binding.
func (b *DirectBinding) TurnOff(dev device.Descriptor) error {
	if err := checkFlow(b.Firewall, dev.Addr); err != nil {
		return err
	}
	_, st, ok := b.Registry.Get(dev.ID)
	if !ok {
		return fmt.Errorf("controller: unknown device %q", dev.ID)
	}
	st.TurnOff(b.now())
	return nil
}

func (b *DirectBinding) now() time.Time {
	if b.Clock != nil {
		return b.Clock.Now()
	}
	return time.Now()
}

// HTTPBinding actuates devices over their local HTTP control protocols,
// routing every flow through the firewall first, exactly as the
// prototype's LC does before its traffic reaches the Things.
type HTTPBinding struct {
	// Endpoints maps device IDs to base URLs (the emulators listen on
	// loopback ports rather than the descriptors' LAN addresses).
	Endpoints map[string]string
	Firewall  *firewall.Firewall
	Client    *http.Client
}

func (b *HTTPBinding) client() *http.Client {
	if b.Client != nil {
		return b.Client
	}
	return http.DefaultClient
}

func (b *HTTPBinding) base(dev device.Descriptor) (string, error) {
	if err := checkFlow(b.Firewall, dev.Addr); err != nil {
		return "", err
	}
	u, ok := b.Endpoints[dev.ID]
	if !ok {
		return "", fmt.Errorf("controller: no endpoint for device %q", dev.ID)
	}
	return u, nil
}

// Apply implements Binding.
func (b *HTTPBinding) Apply(dev device.Descriptor, value float64) error {
	base, err := b.base(dev)
	if err != nil {
		return err
	}
	switch dev.Class {
	case device.ClassHVAC:
		return b.daikinSet(base, true, value)
	case device.ClassLight:
		return b.hueSet(base, devicesim.HueState{On: true, Bri: value})
	default:
		return fmt.Errorf("controller: cannot actuate %v device %q", dev.Class, dev.ID)
	}
}

// TurnOff implements Binding.
func (b *HTTPBinding) TurnOff(dev device.Descriptor) error {
	base, err := b.base(dev)
	if err != nil {
		return err
	}
	switch dev.Class {
	case device.ClassHVAC:
		return b.daikinSet(base, false, 0)
	case device.ClassLight:
		return b.hueSet(base, devicesim.HueState{})
	default:
		return fmt.Errorf("controller: cannot actuate %v device %q", dev.Class, dev.ID)
	}
}

func (b *HTTPBinding) daikinSet(base string, power bool, stemp float64) error {
	url := base + "/aircon/set_control_info?pow=0"
	if power {
		url = fmt.Sprintf("%s/aircon/set_control_info?pow=1&mode=3&stemp=%.1f&shum=0", base, stemp)
	}
	resp, err := b.client().Get(url)
	if err != nil {
		return fmt.Errorf("controller: daikin command: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 256))
	if err != nil {
		return fmt.Errorf("controller: daikin response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("controller: daikin command rejected: %d %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

func (b *HTTPBinding) hueSet(base string, st devicesim.HueState) error {
	payload, err := json.Marshal(st)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, base+"/api/state", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	resp, err := b.client().Do(req)
	if err != nil {
		return fmt.Errorf("controller: hue command: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("controller: hue command rejected: %d", resp.StatusCode)
	}
	return nil
}
