package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/controller"
	"github.com/imcf/imcf/internal/rules"
	"github.com/imcf/imcf/internal/sim"
	"github.com/imcf/imcf/internal/stream"
)

// The tests run every workload at a tiny size (a few tenants, the
// six-rule Flat instead of the Dorms) and feed each output check a
// corrupted output it must reject.

func tinyEnv(t *testing.T) env {
	return env{seed: 7, scratch: t.TempDir(), nproc: 2, tiny: true}
}

// spec is BENCHMARK.json as the tests read it.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// sameNames fails unless the reported metrics are exactly the declared
// ones, with the declared units.
func sameNames(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("%s: %d metrics %v, BENCHMARK.json declares %d", what, len(got), names, len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: metric %s in %s, declared %s", what, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, w.Name, m.Value)
		}
	}
}

func TestWorkloadsTiny(t *testing.T) {
	s := readSpec(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := runUntraced(io.Discard, name, tinyEnv(t), 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			sameNames(t, name, res.Metrics, s.EndToEnd)
			for n, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", n, m.Value)
				}
			}
		})
	}
}

func TestTracedTiny(t *testing.T) {
	res, err := runTraced(io.Discard, t.TempDir(), "fleet-hourly", tinyEnv(t), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	sameNames(t, "traced run", res.Metrics, readSpec(t).PerLayer)
}

// fleetTinyRun sets up the tiny fleet and runs one round.
func fleetTinyRun(t *testing.T) *fleetBench {
	t.Helper()
	f := newFleet(tinyEnv(t), fleetTiny())
	if err := f.setup(nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.finish() })
	var lat latHist
	if _, failed, err := f.round(nil, &lat); err != nil || failed != 0 {
		t.Fatalf("round: failed=%d err=%v", failed, err)
	}
	if err := f.check(); err != nil {
		t.Fatal(err)
	}
	return f
}

// stepWithDrops steps the tiny fleet's tenants directly, hour by hour,
// until one step drops a rule; it returns that tenant's model, the model
// of its block set (fed with the tenant's whole history), the report and
// the firewall rules right after it.
func stepWithDrops(t *testing.T, f *fleetBench) (homeModel, blockState, controller.StepReport, []string) {
	t.Helper()
	for h := 0; h < 24; h++ {
		for i, c := range f.ctls {
			f.clock.set(fleetEpoch.Add(time.Duration(h) * time.Hour))
			rep, err := c.StepCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Dropped) > 0 {
				m := f.models[f.ids[i]]
				state := blockState{}
				for _, r := range c.History() {
					state.apply(m, r)
				}
				return m, state, rep, c.Firewall().Rules()
			}
		}
	}
	t.Fatal("no step dropped a rule")
	return homeModel{}, nil, controller.StepReport{}, nil
}

func TestCheckStepRejectsDroppedRuleMovedToExecuted(t *testing.T) {
	f := fleetTinyRun(t)
	m, _, rep, _ := stepWithDrops(t, f)
	if err := checkStep(m, rep); err != nil {
		t.Fatalf("real step rejected: %v", err)
	}
	bad := rep
	bad.Executed = append(append([]string(nil), rep.Executed...), rep.Dropped[0])
	bad.Dropped = rep.Dropped[1:]
	if err := checkStep(m, bad); err == nil {
		t.Fatal("a dropped rule moved to Executed without its energy passed")
	}
	both := rep
	both.Executed = append(append([]string(nil), rep.Executed...), rep.Dropped[0])
	if err := checkStep(m, both); err == nil {
		t.Fatal("a rule both executed and dropped passed")
	}
	lost := rep
	lost.Dropped = rep.Dropped[1:]
	if err := checkStep(m, lost); err == nil {
		t.Fatal("a step missing an active rule passed")
	}
}

func TestCheckBlockSetRejectsMissingDevice(t *testing.T) {
	f := fleetTinyRun(t)
	m, state, rep, fw := stepWithDrops(t, f)
	if err := checkBlockSet(m, state, rep, fw); err != nil {
		t.Fatalf("real block set rejected: %v", err)
	}
	gone := m.addr[rep.Dropped[0]]
	var missing []string
	for _, r := range fw {
		if !strings.Contains(r, " "+gone+" ") {
			missing = append(missing, r)
		}
	}
	if err := checkBlockSet(m, state, rep, missing); err == nil {
		t.Fatal("a block set missing a dropped device passed")
	}
	var extra []string
	extra = append(extra, fw...)
	for _, id := range rep.Executed {
		if a := m.addr[id]; !strings.Contains(strings.Join(fw, "|"), " "+a+" ") {
			extra = append(extra, "-A OUTPUT -s "+a+" -j DROP")
			if err := checkBlockSet(m, state, rep, extra); err == nil {
				t.Fatal("a block set holding an executed-only device passed")
			}
			return
		}
	}
}

// A device of the home that no active rule controls may stay blocked
// only if its rule was dropped at the last step it was active. Blocking
// one that was never dropped must fail.
func TestCheckBlockSetRejectsNeverDroppedDevice(t *testing.T) {
	f := fleetTinyRun(t)
	m, state, rep, fw := stepWithDrops(t, f)
	blocked, err := blockedAddrs(fw)
	if err != nil {
		t.Fatal(err)
	}
	active := map[string]bool{}
	for _, id := range m.active(rep.Time.Hour()) {
		active[m.addr[id]] = true
	}
	for a := range m.addrOK {
		if blocked[a] || state[a] || active[a] {
			continue
		}
		bad := append(append([]string(nil), fw...), "-A OUTPUT -s "+a+" -j DROP")
		if err := checkBlockSet(m, state, rep, bad); err == nil {
			t.Fatalf("idle device %s, never dropped, passed as blocked", a)
		}
		return
	}
	t.Fatal("no idle device that was never dropped in the tenant's home")
}

// The solo rebuilds cover every residence the fleet hosts.
func TestSoloSpecsCoverEveryResidence(t *testing.T) {
	for _, cfg := range []fleetConfig{fleetTiny(), fleetFull()} {
		specs, _, err := tenantSpecs(7, cfg.tenants, fleetResidences)
		if err != nil {
			t.Fatal(err)
		}
		f := &fleetBench{specs: specs}
		got := map[string]bool{}
		for _, s := range f.soloSpecs() {
			got[s.Residence] = true
		}
		if len(got) != len(fleetResidences) || len(f.soloSpecs()) != len(fleetResidences) {
			t.Fatalf("%d tenants: solo rebuilds cover %v, want one of each of %v", cfg.tenants, got, fleetResidences)
		}
	}
}

func TestCheckMirrorRejectsMirrorOneDeltaBehind(t *testing.T) {
	f := fleetTinyRun(t)
	c := f.ctls[0]
	hub := c.Stream()
	behind := stream.NewMirror()
	behind.ApplySnapshot(hub.Snapshot())
	inst, seq := behind.Position()
	for h := 0; h < 2; h++ {
		f.clock.set(fleetEpoch.Add(time.Duration(18+h) * time.Hour))
		if _, err := c.StepCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	last, _ := c.LastStep()
	want, err := mirrorOf(c.MRT(), last, c.Firewall().Rules())
	if err != nil {
		t.Fatal(err)
	}
	b, ok := hub.Since(inst, seq)
	if !ok {
		t.Fatal("hub cannot resume the snapshot's position")
	}
	// Leave out the newest plan delta: the mirror is one delta behind.
	var kept []stream.Event
	for _, ev := range b.Events {
		if ev.Kind != stream.KindPlan {
			kept = append(kept, ev)
		}
	}
	if len(kept) == len(b.Events) {
		t.Fatal("no plan delta since the snapshot")
	}
	b.Events = kept
	if err := behind.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := checkMirror("test", behind, want); err == nil {
		t.Fatal("a mirror one delta behind passed")
	}
	current := stream.NewMirror()
	current.ApplySnapshot(hub.Snapshot())
	if err := checkMirror("test", current, want); err != nil {
		t.Fatalf("an up-to-date mirror rejected: %v", err)
	}
}

func TestCheckEPResultRejectsEnergyOverBudget(t *testing.T) {
	d := newDorms(tinyEnv(t), dormsTiny())
	if err := d.setup(nil); err != nil {
		t.Fatal(err)
	}
	var lat latHist
	if _, failed, err := d.round(nil, &lat); err != nil || failed != 0 {
		t.Fatalf("round: failed=%d err=%v", failed, err)
	}
	if err := d.check(); err != nil {
		t.Fatalf("real replay rejected: %v", err)
	}
	over := d.last
	over.Energy = over.BudgetTotal + 1
	if err := checkEPResult(d.expect, over); err == nil {
		t.Fatal("EP energy above the period budget passed")
	}
	slots := d.last
	slots.ActiveRuleSlots++
	if err := checkEPResult(d.expect, slots); err == nil {
		t.Fatal("an active rule-slot count off by one passed")
	}
	exec := d.last
	exec.ExecutedRuleSlots = exec.ActiveRuleSlots + 1
	if err := checkEPResult(d.expect, exec); err == nil {
		t.Fatal("more executed than active rule-slots passed")
	}
	changed := d.last
	changed.ConvenienceError++
	if err := sameResult("test", d.last, changed); err == nil {
		t.Fatal("two different replays compared equal")
	}
	if err := d.finish(); err != nil {
		t.Fatalf("verification replays rejected: %v", err)
	}
}

func TestCheckMRAndJournalEnergy(t *testing.T) {
	d := newDorms(tinyEnv(t), dormsTiny())
	if err := d.setup(nil); err != nil {
		t.Fatal(err)
	}
	mr, err := sim.Run(d.w, sim.MR, sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMRResult(d.expect, mr); err != nil {
		t.Fatalf("real MR replay rejected: %v", err)
	}
	mr.Energy -= 0.5
	if err := checkMRResult(d.expect, mr); err == nil {
		t.Fatal("an MR replay short of one rule's energy passed")
	}
	var lat latHist
	if _, _, err := d.round(nil, &lat); err != nil {
		t.Fatal(err)
	}
	r := d.last
	if err := checkJournalEnergy(d.expect, float64(r.Energy)-d.expect.necessityEnergy, r); err != nil {
		t.Fatalf("matching journal energy rejected: %v", err)
	}
	if err := checkJournalEnergy(d.expect, float64(r.Energy)-d.expect.necessityEnergy-0.5, r); err == nil {
		t.Fatal("journal energy short of the replay's passed")
	}
}

func TestRelayCheckRejectsWrongReads(t *testing.T) {
	r := newRelay(tinyEnv(t), relayTiny())
	if err := r.setup(nil); err != nil {
		t.Fatal(err)
	}
	defer r.close()
	var lat latHist
	for i := 0; i < 2; i++ {
		if _, failed, err := r.round(nil, &lat); err != nil || failed != 0 {
			t.Fatalf("round: failed=%d err=%v", failed, err)
		}
		if err := r.check(); err != nil {
			t.Fatalf("real round rejected: %v", err)
		}
	}
	tn := r.tenants[0]
	saved := tn.log

	stale := rulesCopy(tn.mrt)
	stale.Rules[0].Value += 3
	tn.log.mrtRead = &stale
	if err := r.check(); err == nil {
		t.Error("an MRT read that is not what the edit wrote passed")
	}
	tn.log = saved
	tn.log.again304 = false
	if err := r.check(); err == nil {
		t.Error("a 200 for a conditional GET of an unchanged plan passed")
	}
	tn.log = saved
	tn.log.planStatus = "304 for a plan that changed since its ETag"
	if err := r.check(); err == nil {
		t.Error("a 304 for a changed plan passed")
	}
	tn.log = saved
	if err := r.check(); err != nil {
		t.Fatalf("restored round rejected: %v", err)
	}
	if err := r.finish(); err != nil {
		t.Fatalf("end-of-run checks rejected: %v", err)
	}
}

func rulesCopy(m rules.MRT) rules.MRT {
	return rules.MRT{Rules: append([]rules.MetaRule(nil), m.Rules...)}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	var xs []float64
	for i := 1; i <= 10; i++ {
		xs = append(xs, float64(i))
	}
	if q1, m, q3 := quartiles(xs); q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, m, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, m, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || m != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v", q1, m, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "b", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 150}, // runs past its parent
		{ID: 5, Parent: 2, Name: "d", Start: 0, End: 500},  // covers all of its parent
	}
	got := selfTimes(spans)
	want := map[string]float64{"a": 40e-9, "b": 30e-9, "c": 60e-9, "d": 500e-9}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-15 {
			t.Errorf("self %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestLatHistQuantiles(t *testing.T) {
	var h latHist
	for i := 1; i <= 1000; i++ {
		h.add(float64(i) / 10) // 0.1 … 100 ms
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}} {
		if got := h.quantile(c.q); math.Abs(got-c.want)/c.want > 1e-3 {
			t.Errorf("quantile(%v) = %v, want %v within 0.1%%", c.q, got, c.want)
		}
	}
}
