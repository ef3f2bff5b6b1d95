package controller

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"github.com/imcf/imcf/internal/core"
	"github.com/imcf/imcf/internal/device"
	"github.com/imcf/imcf/internal/firewall"
	"github.com/imcf/imcf/internal/home"
	"github.com/imcf/imcf/internal/journal"
	"github.com/imcf/imcf/internal/metrics"
	"github.com/imcf/imcf/internal/obs"
	"github.com/imcf/imcf/internal/persistence"
	"github.com/imcf/imcf/internal/rules"
	"github.com/imcf/imcf/internal/simclock"
	"github.com/imcf/imcf/internal/store"
	"github.com/imcf/imcf/internal/stream"
	"github.com/imcf/imcf/internal/trace"
	"github.com/imcf/imcf/internal/units"
)

// mrtStoreKey is where the controller persists its Meta-Rule Table.
const mrtStoreKey = "imcf/mrt"

// PersistError marks a request that was validated and accepted but
// could not be made durable: the fault is in the storage layer, not
// the input. The REST API maps it to 500 (and the daemon's degraded-
// mode probe to 503) instead of the 422 a bad table gets.
type PersistError struct{ Err error }

// Error implements error.
func (e *PersistError) Error() string { return "controller: persist: " + e.Err.Error() }

// Unwrap exposes the storage-layer cause, so errors.Is sees ENOSPC/EIO
// through the wrapper.
func (e *PersistError) Unwrap() error { return e.Err }

// Step-outcome counters, resolved once at init.
var (
	stepsVec = metrics.NewCounterVec("imcf_controller_steps_total",
		"Planning cycles run by the local controller, by outcome.", "outcome")
	stepsOK  = stepsVec.With("ok")
	stepsErr = stepsVec.With("error")
)

// Mode selects the controller's planning behaviour, the spectrum of
// Fig. 2 in the paper: the budget-aware Energy Planner (the
// contribution), the energy-oblivious IFTTT trigger-action engine (the
// baseline), or no automation at all (manual control only).
type Mode int

// Operating modes.
const (
	// ModeEP runs the Energy Planner each cycle (the default).
	ModeEP Mode = iota
	// ModeIFTTT executes the residence's trigger-action rules
	// greedily, ignoring the budget — live IFTTT baseline behaviour.
	ModeIFTTT
	// ModeManual plans nothing; only explicit Command calls actuate.
	ModeManual
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeEP:
		return "EP"
	case ModeIFTTT:
		return "IFTTT"
	case ModeManual:
		return "manual"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config assembles a controller.
type Config struct {
	// Residence is the smart space the controller manages.
	Residence *home.Residence
	// Store persists the MRT and summaries; nil disables persistence.
	// Any store.Adapter backend works: the durable group-commit WAL DB
	// or the in-memory backend.
	Store store.Adapter
	// Clock drives scheduling; nil means the wall clock.
	Clock simclock.Clock
	// Planner configures the Energy Planner.
	Planner core.Config
	// WeeklyBudget is the energy allowance per week (the prototype
	// evaluation's "165 kWh weekly limit"). It is amortized linearly
	// per hour with the standard bounded carry ledger.
	WeeklyBudget units.Energy
	// CarryCapHours bounds the ledger (default 72 mean-budget hours).
	CarryCapHours float64
	// ErrorModel overrides the convenience-error model.
	ErrorModel rules.ErrorModel
	// Binding actuates devices; nil means a DirectBinding over the
	// controller's registry.
	Binding Binding
	// Firewall enforces plan decisions; nil creates a fresh one.
	Firewall *firewall.Firewall
	// Persistence, when set, records every zone's ambient temperature
	// and light readings at each planning cycle and serves them via
	// the REST API, like openHAB's persistence layer.
	Persistence *persistence.Service
	// FairPlanning switches the Energy Planner to the minimax-fair
	// variant: the plan minimizes the worst per-resident convenience
	// error before total error, so no resident is sacrificed for the
	// others ("multiple energy planners with conflicting interests").
	FairPlanning bool
	// Mode selects EP (default), IFTTT or manual operation.
	Mode Mode
	// Health, when set, tracks step outcomes: any Step error marks the
	// process unhealthy (503 on /healthz) until a cycle succeeds again.
	Health *metrics.Health
	// Journal, when set, records one decision-provenance event per rule
	// verdict each cycle (see internal/journal); the daemon serves it at
	// /debug/decisions and persists it across restarts.
	Journal *journal.Journal
	// Stream, when set, carries the controller's decision stream: the
	// MRT on install, and each cycle's planner verdict and firewall
	// block set, as seq-stamped deltas subscribers resume from
	// (internal/stream, DESIGN.md §16).
	Stream *stream.Hub
}

// StepReport summarizes one planning cycle.
type StepReport struct {
	Time     time.Time          `json:"time"`
	Budget   float64            `json:"budgetKWh"`
	Executed []string           `json:"executed"`
	Dropped  []string           `json:"dropped"`
	Energy   float64            `json:"energyKWh"`
	Error    float64            `json:"errorSum"`
	PerRule  map[string]float64 `json:"perRuleError,omitempty"`
}

// Summary aggregates the controller's lifetime metrics, the quantities
// behind the prototype evaluation's Tables IV and V.
type Summary struct {
	Steps             int                      `json:"steps"`
	Energy            units.Energy             `json:"energyKWh"`
	ConvenienceError  units.Percent            `json:"convenienceErrorPct"`
	PerOwner          map[string]units.Percent `json:"perOwnerErrorPct"`
	ActiveRuleSlots   int64                    `json:"activeRuleSlots"`
	ExecutedRuleSlots int64                    `json:"executedRuleSlots"`
}

// Controller is the IMCF Local Controller.
type Controller struct {
	cfg      Config
	registry *device.Registry
	fw       *firewall.Firewall
	binding  Binding
	planner  *core.Planner
	model    rules.ErrorModel
	clock    simclock.Clock
	rec      *stepRecorder

	mu          sync.Mutex
	mrt         rules.MRT
	carry       float64
	carryCap    float64
	totalEnergy float64
	totalError  float64
	active      int64
	executed    int64
	steps       int
	ownerErr    map[string]float64
	ownerActive map[string]int64
	lastStep    *StepReport
	history     []StepReport // ring of the most recent step reports
	historyAt   int
}

// historyCap bounds the in-memory step-report ring (a week of hourly
// cycles).
const historyCap = 7 * 24

// New builds a controller: it registers the residence's devices, loads
// any persisted MRT (falling back to the residence's), and prepares the
// planner.
func New(cfg Config) (*Controller, error) {
	if cfg.Residence == nil {
		return nil, errors.New("controller: Residence is required")
	}
	if err := cfg.Residence.Validate(); err != nil {
		return nil, err
	}
	if cfg.WeeklyBudget <= 0 {
		return nil, fmt.Errorf("controller: weekly budget %v must be positive", cfg.WeeklyBudget)
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.RealClock{}
	}
	if cfg.Planner.K == 0 && cfg.Planner.MaxIter == 0 && cfg.Planner.Init == 0 {
		cfg.Planner = core.DefaultConfig()
	}
	if cfg.ErrorModel == (rules.ErrorModel{}) {
		cfg.ErrorModel = rules.DefaultErrorModel()
	}
	if cfg.CarryCapHours == 0 {
		cfg.CarryCapHours = 72
	}
	if cfg.CarryCapHours < 0 {
		return nil, fmt.Errorf("controller: negative carry cap %v", cfg.CarryCapHours)
	}

	planner, err := core.NewPlanner(cfg.Planner)
	if err != nil {
		return nil, err
	}

	c := &Controller{
		cfg:         cfg,
		registry:    device.NewRegistry(),
		fw:          cfg.Firewall,
		binding:     cfg.Binding,
		planner:     planner,
		model:       cfg.ErrorModel,
		clock:       cfg.Clock,
		mrt:         cfg.Residence.MRT,
		ownerErr:    make(map[string]float64),
		ownerActive: make(map[string]int64),
	}
	if c.fw == nil {
		c.fw = firewall.New(cfg.Clock)
	}
	if cfg.Journal != nil {
		c.rec = &stepRecorder{j: cfg.Journal}
		planner.SetRecorder(c.rec)
	}
	for _, d := range cfg.Residence.Devices() {
		if err := c.registry.Add(d); err != nil {
			return nil, err
		}
	}
	if c.binding == nil {
		c.binding = &DirectBinding{Registry: c.registry, Firewall: c.fw, Clock: cfg.Clock}
	}

	hourly := cfg.WeeklyBudget.KWh() / (7 * 24)
	c.carryCap = hourly * cfg.CarryCapHours

	// Restore a persisted MRT if one exists; otherwise persist the
	// residence's table so a restart reproduces this configuration.
	if cfg.Store != nil {
		var persisted rules.MRT
		ok, err := cfg.Store.GetJSON(mrtStoreKey, &persisted)
		if err != nil {
			return nil, err
		}
		if ok {
			if err := persisted.Validate(); err != nil {
				return nil, fmt.Errorf("controller: persisted MRT invalid: %w", err)
			}
			c.mrt = persisted
		} else if err := cfg.Store.PutJSON(mrtStoreKey, c.mrt); err != nil {
			return nil, err
		}
	}
	// Seed the decision stream so a subscriber's first snapshot already
	// carries the active MRT and the (empty) firewall block set.
	if cfg.Stream != nil {
		c.publishStream(stream.KindMRT, c.mrt)
		c.publishStream(stream.KindFirewall, c.fw.Rules())
	}
	return c, nil
}

// publishStream pushes one component's new value onto the decision
// stream, when streaming is enabled. Failures are logged rather than
// returned: the stream observes decisions already made, and any
// subscriber that misses a delta resynchronizes from a snapshot.
func (c *Controller) publishStream(kind stream.Kind, v any) {
	if c.cfg.Stream == nil {
		return
	}
	data, err := json.Marshal(v)
	if err == nil {
		_, err = c.cfg.Stream.Publish("", kind, data)
	}
	if err != nil {
		obs.L().LogAttrs(context.Background(), slog.LevelWarn, "stream publish failed",
			slog.String("kind", string(kind)), obs.Error(err))
	}
}

// Stream exposes the controller's decision stream hub, or nil when
// streaming is disabled.
func (c *Controller) Stream() *stream.Hub { return c.cfg.Stream }

// Registry exposes the controller's device registry (the Things view).
func (c *Controller) Registry() *device.Registry { return c.registry }

// Persistence exposes the measurement recorder, or nil if disabled.
func (c *Controller) Persistence() *persistence.Service { return c.cfg.Persistence }

// Firewall exposes the meta-control firewall.
func (c *Controller) Firewall() *firewall.Firewall { return c.fw }

// MRT returns the active Meta-Rule Table.
func (c *Controller) MRT() rules.MRT {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := rules.MRT{Rules: make([]rules.MetaRule, len(c.mrt.Rules))}
	copy(out.Rules, c.mrt.Rules)
	return out
}

// SetMRT validates, installs and persists a new Meta-Rule Table.
func (c *Controller) SetMRT(t rules.MRT) error {
	if err := t.Validate(); err != nil {
		return err
	}
	for _, r := range t.Convenience() {
		if r.Zone >= len(c.cfg.Residence.Zones) {
			return fmt.Errorf("controller: rule %s references missing zone %d", r.ID, r.Zone)
		}
	}
	c.mu.Lock()
	c.mrt = t
	c.mu.Unlock()
	c.publishStream(stream.KindMRT, t)
	if c.cfg.Store != nil {
		if err := c.cfg.Store.PutJSON(mrtStoreKey, t); err != nil {
			return &PersistError{Err: err}
		}
	}
	return nil
}

// AnalyzeConflicts inspects the active MRT for clashes, shadowed rules
// and infeasible budgets, rating rule energy via the residence's device
// inventory.
func (c *Controller) AnalyzeConflicts() ([]rules.Conflict, error) {
	rater := func(r rules.MetaRule) float64 {
		dev, err := c.cfg.Residence.RuleDevice(r)
		if err != nil {
			return 0
		}
		return dev.EnergyPerSlot(time.Hour).KWh()
	}
	return rules.AnalyzeConflicts(c.MRT(), rater)
}

// Step runs one planning cycle for the hour containing the clock's
// current time: it amortizes the budget, runs EP over the active rules,
// actuates executed rules through the binding, and blocks dropped rules
// in the firewall.
func (c *Controller) Step() (StepReport, error) {
	return c.StepCtx(context.Background())
}

// StepCtx is Step carrying the caller's causal trace: when ctx holds a
// metrics.TraceContext (the REST API's TraceMiddleware installs one),
// the cycle's span, journal events, firewall blocks and latency
// exemplar are all tagged with the trace ID.
func (c *Controller) StepCtx(ctx context.Context) (StepReport, error) {
	traceID := metrics.TraceIDFrom(ctx)
	sp := metrics.StartSpanTrace("controller.step", nil, traceID)
	start := time.Now()
	report, err := c.step(traceID)
	metrics.PlannerWindowSeconds.ObserveExemplar(time.Since(start).Seconds(), traceID)
	sp.End(err)
	if err != nil {
		stepsErr.Inc()
		if c.cfg.Health != nil {
			c.cfg.Health.SetError(err)
		}
		obs.L().LogAttrs(ctx, slog.LevelError, "planning cycle failed",
			slog.String("trace", traceID),
			obs.Error(err))
	} else {
		stepsOK.Inc()
		if c.cfg.Health != nil {
			c.cfg.Health.SetHealthy()
		}
	}
	return report, err
}

// step is the uninstrumented planning cycle. traceID tags the cycle's
// provenance (journal events, firewall blocks), "" when untraced.
func (c *Controller) step(traceID string) (StepReport, error) {
	now := c.clock.Now().UTC().Truncate(time.Hour)
	hour := now.Hour()

	c.mu.Lock()
	conv := c.mrt.Convenience()
	var activeRules []rules.MetaRule
	for _, r := range conv {
		if r.ActiveAt(hour) {
			activeRules = append(activeRules, r)
		}
	}
	budget := c.cfg.WeeklyBudget.KWh()/(7*24) + c.carry
	stepNo := c.steps
	c.mu.Unlock()

	report := StepReport{
		Time:    now,
		Budget:  budget,
		PerRule: make(map[string]float64),
	}

	// Record every zone's ambient readings, the openHAB-persistence
	// role of the GUI's measurements table.
	if c.cfg.Persistence != nil {
		for z, zone := range c.cfg.Residence.Zones {
			amb := zone.Ambient.AmbientAt(now)
			itemBase := fmt.Sprintf("zone%d/", z)
			if err := c.cfg.Persistence.Record(itemBase+"temperature", trace.KindTemperature,
				trace.Record{Time: now, Value: amb.Temperature}); err != nil {
				return report, err
			}
			if err := c.cfg.Persistence.Record(itemBase+"light", trace.KindLight,
				trace.Record{Time: now, Value: amb.Light}); err != nil {
				return report, err
			}
		}
	}

	// Necessity rules commit their energy up front; convenience rules
	// compete for the remainder.
	var problem core.Problem
	devs := make([]device.Descriptor, len(activeRules))
	drops := make([]float64, len(activeRules))
	planned := make([]int, 0, len(activeRules))
	necessityEnergy := 0.0
	for i, r := range activeRules {
		dev, err := c.cfg.Residence.RuleDevice(r)
		if err != nil {
			return report, err
		}
		devs[i] = dev
		if r.Necessity {
			necessityEnergy += dev.EnergyPerSlot(time.Hour).KWh()
			continue
		}
		amb := c.cfg.Residence.Zones[r.Zone].Ambient.AmbientAt(now)
		actual := amb.Temperature
		if r.Action == rules.ActionSetLight {
			actual = amb.Light
		}
		drops[i] = c.model.Error(r.Action, r.Value, actual)
		planned = append(planned, i)
		problem.Costs = append(problem.Costs, core.RuleCost{
			DropError: drops[i],
			Energy:    dev.EnergyPerSlot(time.Hour).KWh(),
		})
	}
	problem.Budget = max(budget-necessityEnergy, 0)

	// Non-EP modes bypass the planner entirely; finishStep journals
	// their verdicts since the planner's recorder never fires.
	switch c.cfg.Mode {
	case ModeManual:
		return c.finishStep(report, activeRules, devs, drops, nil,
			make(core.Solution, len(activeRules)), core.Eval{Error: sum(drops)}, budget, false,
			traceID, stepNo, false)
	case ModeIFTTT:
		sol, setpoints, eval := c.iftttPlan(now, activeRules, devs)
		// IFTTT accrues drop errors for unmatched rules and mismatch
		// errors for executed ones; both are inside eval already.
		return c.finishStep(report, activeRules, devs, drops, setpoints, sol, eval, budget, true,
			traceID, stepNo, false)
	}

	// Point the planner's decision recorder at this cycle before the
	// search runs: its per-rule callbacks fire inside Plan/PlanFair.
	if c.rec != nil {
		c.rec.bind(traceID, now, stepNo, activeRules, planned)
	}

	var planSol core.Solution
	var eval core.Eval
	var err error
	if c.cfg.FairPlanning {
		owners := make(map[string]int)
		group := make([]int, 0, len(planned))
		for _, i := range planned {
			owner := activeRules[i].Owner
			g, ok := owners[owner]
			if !ok {
				g = len(owners)
				owners[owner] = g
			}
			group = append(group, g)
		}
		nGroups := len(owners)
		if nGroups == 0 {
			nGroups = 1
		}
		// Seed each owner's group with the error debt accumulated in
		// earlier cycles, so fairness holds over time, not per slot.
		offsets := make([]float64, nGroups)
		c.mu.Lock()
		for owner, g := range owners {
			offsets[g] = c.ownerErr[owner]
		}
		c.mu.Unlock()
		var ge core.GroupEval
		planSol, ge, err = c.planner.PlanFair(problem, group, nGroups, offsets)
		eval = ge.Eval
	} else {
		planSol, eval, err = c.planner.Plan(problem)
	}
	if err != nil {
		return report, err
	}
	eval.Energy += necessityEnergy
	// Expand the plan back over all active rules; necessity rules are
	// always on.
	sol := make(core.Solution, len(activeRules))
	for i, r := range activeRules {
		if r.Necessity {
			sol[i] = true
		}
	}
	for j, i := range planned {
		sol[i] = planSol[j]
	}
	return c.finishStep(report, activeRules, devs, drops, nil, sol, eval, budget, true,
		traceID, stepNo, true)
}

// sum adds a float slice.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// iftttPlan resolves the trigger-action rule set for the current hour:
// every active rule whose action kind the IFTTT table sets executes at
// the IFTTT output value, budget ignored; the eval carries the energy
// and the desired-vs-set mismatch errors.
func (c *Controller) iftttPlan(now time.Time, activeRules []rules.MetaRule, devs []device.Descriptor) (core.Solution, []float64, core.Eval) {
	obs := c.cfg.Residence.Weather.At(now)
	amb := c.cfg.Residence.Zones[0].Ambient.AmbientAt(now)
	env := rules.Env{
		Season:      obs.Season,
		Condition:   obs.Condition,
		OutdoorTemp: obs.Temperature.Celsius(),
		Light:       amb.Light,
	}
	outputs := rules.Outputs(c.cfg.Residence.IFTTT, env)

	sol := make(core.Solution, len(activeRules))
	setpoints := make([]float64, len(activeRules))
	var eval core.Eval
	for i, r := range activeRules {
		set, ok := outputs[r.Action]
		if !ok {
			// Unmatched: falls back to ambient, like a drop.
			zoneAmb := c.cfg.Residence.Zones[r.Zone].Ambient.AmbientAt(now)
			actual := zoneAmb.Temperature
			if r.Action == rules.ActionSetLight {
				actual = zoneAmb.Light
			}
			eval.Error += c.model.Error(r.Action, r.Value, actual)
			continue
		}
		sol[i] = true
		setpoints[i] = set
		eval.Energy += devs[i].EnergyPerSlot(time.Hour).KWh()
		eval.Error += c.model.Error(r.Action, r.Value, set)
	}
	return sol, setpoints, eval
}

// finishStep actuates a plan (when actuate is true), updates the
// accounting and history, and returns the report. setpoints, when
// non-nil, overrides each executed rule's actuation value (IFTTT mode).
// traceID and stepNo tag provenance; plannerJournaled reports whether
// the planner's recorder already journaled the convenience-rule
// verdicts, in which case finishStep journals only the necessity rules
// the planner never saw.
func (c *Controller) finishStep(report StepReport, activeRules []rules.MetaRule, devs []device.Descriptor,
	drops []float64, setpoints []float64, sol core.Solution, eval core.Eval, budget float64, actuate bool,
	traceID string, stepNo int, plannerJournaled bool) (StepReport, error) {

	var firstErr error
	// Firewall programming: the block set is cleared up front (so every
	// actuation — on and off commands alike — passes the firewall),
	// binding I/O runs per rule in rule order, then the cycle's drops
	// replace the set. The installed set is thus exactly this cycle's
	// drops: a block from an earlier cycle whose rule is no longer
	// active does not outlive it. When one device backs both an executed
	// and a dropped rule the block wins.
	var blocks []firewall.BlockRule
	if actuate {
		c.fw.Replace(nil)
	}
	for i, r := range activeRules {
		dev := devs[i]
		if sol[i] {
			if actuate {
				value := r.Value
				if setpoints != nil {
					value = setpoints[i]
				}
				if err := c.binding.Apply(dev, value); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			report.Executed = append(report.Executed, r.ID)
		} else {
			if actuate {
				if err := c.binding.TurnOff(dev); err != nil && firstErr == nil {
					firstErr = err
				}
				blocks = append(blocks, firewall.BlockRule{
					Addr:   dev.Addr,
					Reason: "meta-rule " + r.ID + " dropped by " + c.cfg.Mode.String(),
					Trace:  traceID,
				})
			}
			report.Dropped = append(report.Dropped, r.ID)
			report.PerRule[r.ID] = drops[i]
		}
		// Journal the verdicts the planner's recorder did not cover:
		// every rule in manual/IFTTT mode, only necessity rules under EP.
		if c.cfg.Journal != nil && (!plannerJournaled || r.Necessity) {
			v := journal.VerdictDropped
			delta := drops[i]
			if sol[i] {
				v = journal.VerdictExecuted
				delta = 0
			}
			c.cfg.Journal.Append(journal.Event{
				Slot:           report.Time,
				Window:         stepNo,
				Rule:           r.ID,
				Owner:          r.Owner,
				Verdict:        v,
				Trace:          traceID,
				EpRemainingKWh: budget - eval.Energy,
				EnergyKWh:      dev.EnergyPerSlot(time.Hour).KWh(),
				FCEDelta:       delta,
				FlipIter:       journal.FlipNever,
			})
		}
	}
	if actuate {
		c.fw.Replace(blocks)
	}
	sort.Strings(report.Executed)
	sort.Strings(report.Dropped)
	report.Energy = eval.Energy
	report.Error = eval.Error

	c.mu.Lock()
	c.carry = min(max(budget-eval.Energy, 0), c.carryCap)
	c.totalEnergy += eval.Energy
	c.totalError += eval.Error
	c.active += int64(len(activeRules))
	c.executed += int64(len(report.Executed))
	c.steps++
	for i, r := range activeRules {
		if !sol[i] {
			c.ownerErr[r.Owner] += drops[i]
		}
		c.ownerActive[r.Owner]++
	}
	c.lastStep = &report
	if len(c.history) < historyCap {
		c.history = append(c.history, report)
	} else {
		c.history[c.historyAt] = report
		c.historyAt = (c.historyAt + 1) % historyCap
	}
	c.mu.Unlock()

	// Every active rule lands in exactly one of Executed/Dropped, so
	// these satisfy considered == executed + dropped by construction —
	// the invariant /metrics scrapers can assert.
	metrics.RulesConsidered.Add(uint64(len(activeRules)))
	metrics.RulesExecuted.Add(uint64(len(report.Executed)))
	metrics.RulesDropped.Add(uint64(len(report.Dropped)))
	metrics.EnergyConsumedKWh.Add(eval.Energy)
	metrics.ConvenienceErrorSum.Add(eval.Error)

	// Stream the cycle's outcome: the verdict, then the block set it
	// left installed.
	if c.cfg.Stream != nil {
		c.publishStream(stream.KindPlan, report)
		c.publishStream(stream.KindFirewall, c.fw.Rules())
	}

	return report, firstErr
}

// History returns the most recent step reports, oldest first, up to a
// week of hourly cycles.
func (c *Controller) History() []StepReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]StepReport, 0, len(c.history))
	if len(c.history) == historyCap {
		out = append(out, c.history[c.historyAt:]...)
		out = append(out, c.history[:c.historyAt]...)
	} else {
		out = append(out, c.history...)
	}
	return out
}

// LastStep returns the most recent step report, or false if none ran.
func (c *Controller) LastStep() (StepReport, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lastStep == nil {
		return StepReport{}, false
	}
	return *c.lastStep, true
}

// Summary returns the lifetime metrics.
func (c *Controller) Summary() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Summary{
		Steps:             c.steps,
		Energy:            units.Energy(c.totalEnergy),
		PerOwner:          make(map[string]units.Percent, len(c.ownerErr)),
		ActiveRuleSlots:   c.active,
		ExecutedRuleSlots: c.executed,
	}
	if c.active > 0 {
		s.ConvenienceError = units.FromFraction(c.totalError / float64(c.active))
	}
	for owner, n := range c.ownerActive {
		if n > 0 {
			s.PerOwner[owner] = units.FromFraction(c.ownerErr[owner] / float64(n))
		}
	}
	return s
}

// Command manually actuates a device (the APP → LC path). The firewall
// still applies: commands to blocked devices fail with ErrBlocked.
func (c *Controller) Command(deviceID string, value float64) error {
	dev, _, ok := c.registry.Get(deviceID)
	if !ok {
		return fmt.Errorf("controller: unknown device %q", deviceID)
	}
	return c.binding.Apply(dev, value)
}

// Schedule runs Step every interval on the cron scheduler and returns
// the stop function.
func (c *Controller) Schedule(cron *Cron, interval time.Duration, onErr func(error)) (stop func()) {
	return cron.Every(interval, func(time.Time) {
		if _, err := c.Step(); err != nil && onErr != nil {
			onErr(err)
		}
	})
}
