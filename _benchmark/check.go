package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"

	"github.com/imcf/imcf/internal/controller"
	"github.com/imcf/imcf/internal/home"
	"github.com/imcf/imcf/internal/rules"
	"github.com/imcf/imcf/internal/sim"
	"github.com/imcf/imcf/internal/stream"
)

// The checkers compare the program's outputs with what the benchmark
// computes on its own from the generated inputs (rule windows, device
// ratings and addresses), or with properties the method must have. None
// compares against a stored copy of an earlier output.

// homeModel is the benchmark's own view of one home's Meta-Rule Table:
// which rules are active at an hour, and the device behind each rule.
type homeModel struct {
	rules  []rules.MetaRule   // every non-budget rule, in table order
	kwh    map[string]float64 // rule ID → its device's rating over one hour, in kWh
	addr   map[string]string  // rule ID → its device's network address
	addrOK map[string]bool    // every device address of the home
}

func newHomeModel(res *home.Residence, mrt rules.MRT) (homeModel, error) {
	m := homeModel{kwh: map[string]float64{}, addr: map[string]string{}, addrOK: map[string]bool{}}
	for _, z := range res.Zones {
		m.addrOK[z.HVAC.Addr] = true
		m.addrOK[z.Light.Addr] = true
	}
	for _, r := range mrt.Rules {
		if r.Action == rules.ActionSetKWhLimit {
			continue
		}
		if r.Zone < 0 || r.Zone >= len(res.Zones) {
			return m, fmt.Errorf("rule %s names zone %d of %d", r.ID, r.Zone, len(res.Zones))
		}
		z := res.Zones[r.Zone]
		dev := z.Light
		if r.Action == rules.ActionSetTemperature {
			dev = z.HVAC
		}
		m.rules = append(m.rules, r)
		m.kwh[r.ID] = dev.Rating.Watts() / 1000
		m.addr[r.ID] = dev.Addr
	}
	return m, nil
}

// activeAt reports whether the hour of day falls in the rule's window
// (windows may wrap midnight; an end of 24 is the end of the day).
func activeAt(r rules.MetaRule, hour int) bool {
	s, e := r.Window.StartHour, r.Window.EndHour
	if s < e {
		return hour >= s && hour < e
	}
	return hour >= s || hour < e
}

// active returns the IDs of the rules active at hour, sorted.
func (m homeModel) active(hour int) []string {
	var out []string
	for _, r := range m.rules {
		if activeAt(r, hour) {
			out = append(out, r.ID)
		}
	}
	sort.Strings(out)
	return out
}

// near compares two energies that were summed in different orders.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkStep checks one planning step's report: Executed and Dropped are
// disjoint and together the rules active at the step's hour, Energy is
// the executed rules' device ratings over one hour, and the budget is
// exceeded only when no convenience rule executed (necessity rules run
// regardless of the budget).
func checkStep(m homeModel, rep controller.StepReport) error {
	want := m.active(rep.Time.Hour())
	seen := map[string]string{}
	var got []string
	energy := 0.0
	conv := 0
	necessity := map[string]bool{}
	for _, r := range m.rules {
		necessity[r.ID] = r.Necessity
	}
	for _, list := range []struct {
		name string
		ids  []string
	}{{"executed", rep.Executed}, {"dropped", rep.Dropped}} {
		for _, id := range list.ids {
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("step %s: rule %s is both %s and %s", rep.Time.Format("2006-01-02T15"), id, prev, list.name)
			}
			seen[id] = list.name
			got = append(got, id)
			if list.name == "executed" {
				kwh, ok := m.kwh[id]
				if !ok {
					return fmt.Errorf("step %s: executed rule %s is not in the table", rep.Time.Format("2006-01-02T15"), id)
				}
				energy += kwh
				if !necessity[id] {
					conv++
				}
			}
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
		return fmt.Errorf("step %s: executed ∪ dropped = %v, want the active rules %v", rep.Time.Format("2006-01-02T15"), got, want)
	}
	if !near(energy, rep.Energy) {
		return fmt.Errorf("step %s: energy %.9f kWh, want %.9f (executed ratings × 1 h)", rep.Time.Format("2006-01-02T15"), rep.Energy, energy)
	}
	if rep.Energy > rep.Budget+1e-9 && conv > 0 {
		return fmt.Errorf("step %s: energy %.6f kWh over budget %.6f with %d convenience rules executed", rep.Time.Format("2006-01-02T15"), rep.Energy, rep.Budget, conv)
	}
	return nil
}

// blockedAddrs parses the firewall's iptables-style rules back into
// addresses.
func blockedAddrs(fw []string) (map[string]bool, error) {
	out := map[string]bool{}
	for _, r := range fw {
		f := strings.Fields(r)
		if len(f) != 6 || f[0] != "-A" || f[1] != "OUTPUT" || f[2] != "-s" || f[4] != "-j" || f[5] != "DROP" {
			return nil, fmt.Errorf("unexpected firewall rule %q", r)
		}
		out[f[3]] = true
	}
	return out, nil
}

// blockState is the benchmark's own model of which devices a tenant's
// firewall may hold blocked, fed with every step in order. A step
// unblocks the devices of the rules active at its hour and then blocks
// those of its dropped rules; a device that no active rule controls is
// left as its last step left it. So a device whose rule was dropped
// stays blocked after the rule's window closes, until a rule on it is
// active again: the controller's finishStep does this (a FOUND line in
// CHANGES.md). The model holds exactly those devices and no others.
type blockState map[string]bool

func (b blockState) apply(m homeModel, rep controller.StepReport) {
	for _, id := range m.active(rep.Time.Hour()) {
		delete(b, m.addr[id])
	}
	for _, id := range rep.Dropped {
		b[m.addr[id]] = true
	}
}

// checkBlockSet checks the firewall's block set after a step: every
// dropped rule's device is blocked (a device behind both an executed and
// a dropped rule counts as blocked), and every other blocked device is
// one whose rule was dropped at an earlier step with no rule on it active
// since (state, which must already include rep). Such a stale block is
// allowed, not required, so the check holds whether or not the
// controller clears it.
func checkBlockSet(m homeModel, state blockState, rep controller.StepReport, fw []string) error {
	blocked, err := blockedAddrs(fw)
	if err != nil {
		return err
	}
	at := rep.Time.Format("2006-01-02T15")
	dropped := map[string]bool{}
	for _, id := range rep.Dropped {
		dropped[m.addr[id]] = true
		if !blocked[m.addr[id]] {
			return fmt.Errorf("step %s: dropped rule %s's device %s is not blocked", at, id, m.addr[id])
		}
	}
	activeDev := map[string]bool{}
	for _, id := range m.active(rep.Time.Hour()) {
		activeDev[m.addr[id]] = true
	}
	for a := range blocked {
		switch {
		case dropped[a]:
		case activeDev[a]:
			return fmt.Errorf("step %s: device %s is blocked but only executed rules control it", at, a)
		case !m.addrOK[a]:
			return fmt.Errorf("step %s: blocked address %s is no device of the home", at, a)
		case !state[a]:
			return fmt.Errorf("step %s: device %s is blocked, but no rule on it was dropped at the last step it was active", at, a)
		}
	}
	return nil
}

// dormsExpect is what the benchmark computes on its own for a replay of
// a residence over its evaluation period.
type dormsExpect struct {
	activeRuleSlots int64   // Σ over hourly slots of the rules active in the slot
	mrEnergy        float64 // Σ over rules of device rating × active hours (every rule executes)
	necessityEnergy float64 // the part of mrEnergy that necessity rules draw
}

func newDormsExpect(res *home.Residence) (dormsExpect, error) {
	var x dormsExpect
	m, err := newHomeModel(res, res.MRT)
	if err != nil {
		return x, err
	}
	start := sim.DefaultStart
	end := start.AddDate(res.Years, 0, 0)
	var hours [24]int64
	for t := start; t.Before(end); t = t.Add(3600e9) {
		hours[t.Hour()]++
	}
	for _, r := range m.rules {
		for h := 0; h < 24; h++ {
			if activeAt(r, h) {
				x.activeRuleSlots += hours[h]
				e := m.kwh[r.ID] * float64(hours[h])
				x.mrEnergy += e
				if r.Necessity {
					x.necessityEnergy += e
				}
			}
		}
	}
	return x, nil
}

// checkEPResult checks an EP replay: its active rule-slots are the
// benchmark's own count, no more executed than active, and the energy
// within the period budget.
func checkEPResult(x dormsExpect, r sim.Result) error {
	if r.ActiveRuleSlots != x.activeRuleSlots {
		return fmt.Errorf("EP replay: %d active rule-slots, want %d from the MRT windows over the hourly grid", r.ActiveRuleSlots, x.activeRuleSlots)
	}
	if r.ExecutedRuleSlots > r.ActiveRuleSlots {
		return fmt.Errorf("EP replay: %d executed rule-slots of %d active", r.ExecutedRuleSlots, r.ActiveRuleSlots)
	}
	if float64(r.Energy) > float64(r.BudgetTotal) {
		return fmt.Errorf("EP replay: energy %.3f kWh exceeds the period budget %.3f kWh", float64(r.Energy), float64(r.BudgetTotal))
	}
	return nil
}

// checkMRResult checks an MR replay's energy against the benchmark's sum
// of each rule's rating × active hours.
func checkMRResult(x dormsExpect, r sim.Result) error {
	if !near(float64(r.Energy), x.mrEnergy) {
		return fmt.Errorf("MR replay: energy %.6f kWh, want %.6f (ratings × active hours)", float64(r.Energy), x.mrEnergy)
	}
	return nil
}

// checkJournalEnergy checks that the energy of the executed verdicts a
// journal sink saw, plus the necessity rules' energy the planner never
// decides on, is the replay's energy.
func checkJournalEnergy(x dormsExpect, executedKWh float64, r sim.Result) error {
	if !near(executedKWh+x.necessityEnergy, float64(r.Energy)) {
		return fmt.Errorf("journal: executed events sum to %.6f kWh (+%.6f necessity), replay energy %.6f kWh",
			executedKWh, x.necessityEnergy, float64(r.Energy))
	}
	return nil
}

// sameResult reports how two replays' outputs differ; the plan timing
// fields are excluded, everything else must be bit-identical.
func sameResult(what string, a, b sim.Result) error {
	type key struct {
		E, CE, Budget    float64
		Slots            int
		Active, Executed int64
	}
	ka := key{float64(a.Energy), float64(a.ConvenienceError), float64(a.BudgetTotal), a.Slots, a.ActiveRuleSlots, a.ExecutedRuleSlots}
	kb := key{float64(b.Energy), float64(b.ConvenienceError), float64(b.BudgetTotal), b.Slots, b.ActiveRuleSlots, b.ExecutedRuleSlots}
	if ka != kb || !reflect.DeepEqual(a.PerOwner, b.PerOwner) {
		return fmt.Errorf("%s: results differ: %+v vs %+v", what, ka, kb)
	}
	return nil
}

// checkMirror checks that a mirror holds exactly the state want holds.
func checkMirror(what string, got, want *stream.Mirror) error {
	g, w := got.Canonical(), want.Canonical()
	if !bytes.Equal(g, w) {
		return fmt.Errorf("%s: mirror differs from the daemon's state:\n got %s\nwant %s", what, g, w)
	}
	return nil
}
