package controller

import (
	"context"
	"crypto/rand"
	"encoding/hex"
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
	// Store persists the MRT under mrtStoreKey: New loads it from
	// there, or writes the residence's MRT when the key is absent, and
	// SetMRT writes each replacement. nil disables persistence. Any
	// store.Adapter backend works: the durable group-commit WAL DB or
	// the in-memory backend.
	Store store.Adapter
	// Clock drives scheduling; nil means the wall clock.
	Clock simclock.Clock
	// Planner configures the Energy Planner. Fields left zero take
	// core.DefaultConfig's values.
	Planner core.Config
	// WeeklyBudget is the energy allowance per week (the prototype
	// evaluation's "165 kWh weekly limit"). It is amortized linearly
	// per hour with the standard bounded carry ledger.
	WeeklyBudget units.Energy
	// CarryCapHours bounds the ledger to this many mean-budget hours;
	// zero means core.DefaultCarryCapHours.
	CarryCapHours float64
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
	// Stream carries the controller's decision stream: the MRT on
	// install, and each cycle's planner verdict and firewall block set,
	// as seq-stamped deltas subscribers resume from (internal/stream,
	// DESIGN.md §16). Its stored bytes are also what GET /rest/mrt and
	// GET /rest/plan serve. nil creates a hub with a fresh instance
	// token and the default delta ring.
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
	rec      *journal.Recorder

	// stepMu serializes the controller's mutating entry points: planning
	// cycles, whichever entry point (the daemon's schedule loop or an
	// explicit fleet Cycle, POST /rest/plan/run) started them, SetMRT's persist-swap-publish and
	// manual device commands. The planner, the ledger, the step scratch
	// and a cycle's firewall programming belong to one of them at a
	// time, so no command runs while a cycle reprograms the block set.
	// Lock order: stepMu, then mu.
	stepMu  sync.Mutex
	ledger  core.Ledger
	scratch stepScratch

	mu          sync.Mutex
	mrt         rules.MRT
	totalEnergy float64
	totalError  float64
	active      int64
	executed    int64
	steps       int
	ownerErr    map[string]float64
	ownerActive map[string]int64
	history     []StepReport // ring of the most recent step reports
	historyAt   int
}

// stepPlan is one cycle's decision, all that apply needs: the slot and
// its step ordinal, the active rules in table order with their devices,
// drop errors, verdicts and setpoints, the plan's evaluation (necessity
// energy included) and the slot budget.
type stepPlan struct {
	slot      time.Time
	stepNo    int
	active    []rules.MetaRule
	devs      []device.Descriptor
	drops     []float64
	sol       core.Solution
	setpoints []float64
	eval      core.Eval
	budget    float64
}

// stepScratch is one planning cycle's working set: the plan, the EP
// problem behind it and the firewall block list. Its slices are grown
// under a cap guard and reused by every step, as core.Planner reuses
// its own scratch, so they are valid only inside the step that filled
// them; stepMu is their guard. Nothing a step hands out aliases them:
// report rule lists get a fresh array per report (splitNames).
type stepScratch struct {
	plan    stepPlan
	planned []int // active indices of the convenience rules EP plans
	costs   []core.RuleCost
	blocks  []firewall.BlockRule
}

// resize returns s with length n, reallocating only when its capacity
// is short. The contents are stale; callers overwrite or clear them.
//
//imcf:noalloc
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
	if cfg.Mode < ModeEP || cfg.Mode > ModeManual {
		return nil, fmt.Errorf("controller: unknown mode %v", cfg.Mode)
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.RealClock{}
	}
	if cfg.Stream == nil {
		cfg.Stream = stream.NewHub(MintStreamInstance(), 0)
	}
	cfg.Planner = cfg.Planner.WithDefaults()
	if cfg.Planner.MaxIter == 0 {
		cfg.Planner.MaxIter = core.DefaultConfig().MaxIter
	}
	ledger, err := core.NewLedger(cfg.WeeklyBudget.KWh()/(7*24), cfg.CarryCapHours)
	if err != nil {
		return nil, err
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
		ledger:      ledger,
		model:       rules.DefaultErrorModel(),
		clock:       cfg.Clock,
		mrt:         cfg.Residence.MRT,
		ownerErr:    make(map[string]float64),
		ownerActive: make(map[string]int64),
	}
	if c.fw == nil {
		c.fw = firewall.New()
	}
	if cfg.Journal != nil {
		c.rec = journal.NewRecorder(cfg.Journal)
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
	// Seed the decision stream so a subscriber's first snapshot, and the
	// first GET /rest/mrt, already carry the active MRT and the (empty)
	// firewall block set.
	c.mrt = withRuleList(c.mrt)
	c.publishStream(stream.KindMRT, c.mrt)
	c.publishStream(stream.KindFirewall, c.fw.Rules())
	return c, nil
}

// MintStreamInstance returns a fresh 8-byte hex token naming one
// stream-hub lifetime. It must differ across restarts (sequence numbers
// are not comparable across hub lifetimes), so it comes from
// crypto/rand, never from the sim clock. Exhausting the system's
// entropy source is unrecoverable (the same stance metrics takes for
// trace IDs).
func MintStreamInstance() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("controller: crypto/rand: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// publishStream pushes one component's new value onto the decision
// stream. Failures are logged rather than returned: the stream observes
// decisions already made, and any subscriber that misses a delta
// resynchronizes from a snapshot.
func (c *Controller) publishStream(kind stream.Kind, v any) {
	data, err := json.Marshal(v)
	if err == nil {
		_, err = c.cfg.Stream.Publish("", kind, data)
	}
	if err != nil {
		obs.L().LogAttrs(context.Background(), slog.LevelWarn, "stream publish failed",
			slog.String("kind", string(kind)), obs.Error(err))
	}
}

// Stream exposes the controller's decision stream hub.
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

// withRuleList gives an empty table an empty rule list instead of nil,
// so it renders as "rules":[] wherever it goes, as MRT() copies do:
// GET /rest/mrt serves the published bytes.
func withRuleList(t rules.MRT) rules.MRT {
	if t.Rules == nil {
		t.Rules = []rules.MetaRule{}
	}
	return t
}

// SetMRT validates, persists, installs and publishes a new Meta-Rule
// Table, in that order: a table that fails to persist never goes live
// or onto the stream. The whole install holds stepMu, so MRT writes and
// planning steps have one writer and memory, store and stream agree
// after every call; readers under mu never wait on the store.
func (c *Controller) SetMRT(t rules.MRT) error {
	if err := t.Validate(); err != nil {
		return err
	}
	for _, r := range t.Convenience() {
		if r.Zone >= len(c.cfg.Residence.Zones) {
			return fmt.Errorf("controller: rule %s references missing zone %d", r.ID, r.Zone)
		}
	}
	t = withRuleList(t)
	c.stepMu.Lock()
	defer c.stepMu.Unlock()
	if c.cfg.Store != nil {
		if err := c.cfg.Store.PutJSON(mrtStoreKey, t); err != nil {
			return &PersistError{Err: err}
		}
	}
	c.mu.Lock()
	c.mrt = t
	c.mu.Unlock()
	c.publishStream(stream.KindMRT, t)
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
// current time, in two stages with a fixed order: plan (sense, build,
// decide which active rules execute within the amortized budget), then
// apply (firewall and actuation, journal, ledger settle and accounting,
// history, metrics, publish).
func (c *Controller) Step() (StepReport, error) {
	return c.StepCtx(context.Background())
}

// StepCtx is Step carrying the caller's causal trace: when ctx holds a
// metrics.TraceContext (the REST API's TraceMiddleware installs one),
// the cycle's span, journal events, firewall blocks and planner-time
// exemplar are all tagged with the trace ID. Concurrent calls on one
// controller run one at a time.
func (c *Controller) StepCtx(ctx context.Context) (StepReport, error) {
	traceID := metrics.TraceIDFrom(ctx)
	sp := metrics.StartSpanTrace("controller.step", nil, traceID)
	report, err := c.step(traceID)
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

// step is the uninstrumented planning cycle: plan, then apply, under
// stepMu. A cycle that fails in plan actuates, settles and counts
// nothing. traceID tags the cycle's provenance (journal events, firewall
// blocks), "" when untraced.
func (c *Controller) step(traceID string) (StepReport, error) {
	c.stepMu.Lock()
	defer c.stepMu.Unlock()
	p, err := c.plan(traceID)
	if err != nil {
		return StepReport{Time: p.slot, Budget: p.budget}, err
	}
	return c.apply(p, traceID)
}

// plan is the cycle's first stage: sense, build, decide. It records
// every zone's ambient readings, prices the active rules, and reaches
// the mode's verdict: the Energy Planner within the ledger's budget,
// the IFTTT trigger-action table, or manual mode's all-off. It returns
// the scratch's stepPlan and changes nothing apply owns: no device,
// block, journal event outside the planner's recorder, ledger carry,
// counter or stream. The verdict alone is the planner time observed in
// imcf_planner_window_seconds.
func (c *Controller) plan(traceID string) (*stepPlan, error) {
	sc := &c.scratch
	p := &sc.plan
	p.slot = c.clock.Now().UTC().Truncate(time.Hour)
	p.budget = c.ledger.Budget(c.cfg.WeeklyBudget.KWh() / (7 * 24))
	hour := p.slot.Hour()
	c.mu.Lock()
	p.active = p.active[:0]
	for i := range c.mrt.Rules {
		if c.mrt.Rules[i].ActiveAt(hour) {
			p.active = append(p.active, c.mrt.Rules[i])
		}
	}
	p.stepNo = c.steps
	c.mu.Unlock()

	// Sense: every zone's ambient readings, the openHAB-persistence
	// role of the GUI's measurements table.
	if c.cfg.Persistence != nil {
		for z, zone := range c.cfg.Residence.Zones {
			amb := zone.Ambient.AmbientAt(p.slot)
			itemBase := fmt.Sprintf("zone%d/", z)
			if err := c.cfg.Persistence.Record(itemBase+"temperature", trace.KindTemperature,
				trace.Record{Time: p.slot, Value: amb.Temperature}); err != nil {
				return p, err
			}
			if err := c.cfg.Persistence.Record(itemBase+"light", trace.KindLight,
				trace.Record{Time: p.slot, Value: amb.Light}); err != nil {
				return p, err
			}
		}
	}

	// Build: necessity rules commit their energy up front; convenience
	// rules are priced for the planner, each one's drop error against
	// its zone's ambient reading.
	n := len(p.active)
	p.devs, p.drops = resize(p.devs, n), resize(p.drops, n)
	p.sol, p.setpoints = resize(p.sol, n), resize(p.setpoints, n)
	clear(p.drops)
	sc.planned, sc.costs = sc.planned[:0], sc.costs[:0]
	necessity := 0.0
	for i, r := range p.active {
		dev, err := c.cfg.Residence.RuleDevice(r)
		if err != nil {
			return p, err
		}
		p.devs[i], p.setpoints[i] = dev, r.Value
		if r.Necessity {
			necessity += dev.EnergyPerSlot(time.Hour).KWh()
			continue
		}
		amb := c.cfg.Residence.Zones[r.Zone].Ambient.AmbientAt(p.slot)
		actual := amb.Temperature
		if r.Action == rules.ActionSetLight {
			actual = amb.Light
		}
		p.drops[i] = c.model.Error(r.Action, r.Value, actual)
		sc.planned = append(sc.planned, i)
		sc.costs = append(sc.costs, core.RuleCost{
			DropError: p.drops[i],
			Energy:    dev.EnergyPerSlot(time.Hour).KWh(),
		})
	}

	// Decide. The recorder is bound to this cycle first: the planner
	// journals through it, and so does apply.
	if c.rec != nil {
		c.rec.Bind(p.slot, p.stepNo, traceID, p.active, sc.planned)
	}
	start := time.Now()
	var err error
	switch c.cfg.Mode {
	case ModeManual:
		clear(p.sol)
		p.eval = core.Eval{}
		for _, d := range p.drops {
			p.eval.Error += d
		}
	case ModeIFTTT:
		p.eval = c.iftttPlan(p)
	default:
		err = c.epPlan(p, necessity)
	}
	metrics.PlannerWindowSeconds.ObserveExemplar(time.Since(start).Seconds(), traceID)
	return p, err
}

// epPlan runs the Energy Planner over the convenience rules within what
// the ledger leaves of the budget once necessity energy is committed,
// then expands the verdict over all active rules: necessity rules
// always execute. The planner's recorder journals the convenience
// verdicts.
func (c *Controller) epPlan(p *stepPlan, necessityKWh float64) error {
	sc := &c.scratch
	problem := c.ledger.Problem(sc.costs, p.budget, necessityKWh)
	var planSol core.Solution
	var err error
	if c.cfg.FairPlanning {
		owners := make(map[string]int)
		group := make([]int, 0, len(sc.planned))
		for _, i := range sc.planned {
			owner := p.active[i].Owner
			g, ok := owners[owner]
			if !ok {
				g = len(owners)
				owners[owner] = g
			}
			group = append(group, g)
		}
		// Seed each owner's group with the error debt accumulated in
		// earlier cycles, so fairness holds over time, not per slot.
		offsets := make([]float64, max(len(owners), 1))
		c.mu.Lock()
		for owner, g := range owners {
			offsets[g] = c.ownerErr[owner]
		}
		c.mu.Unlock()
		var ge core.GroupEval
		planSol, ge, err = c.planner.PlanFair(problem, group, len(offsets), offsets)
		p.eval = ge.Eval
	} else {
		planSol, p.eval, err = c.planner.Plan(problem)
	}
	if err != nil {
		return err
	}
	p.eval.Energy += necessityKWh
	for i := range p.active {
		p.sol[i] = p.active[i].Necessity
	}
	for j, i := range sc.planned {
		p.sol[i] = planSol[j]
	}
	return nil
}

// iftttPlan resolves the trigger-action rule set for the plan's hour:
// every active rule whose action kind the IFTTT table sets executes at
// the IFTTT output value, budget ignored. The eval carries the energy
// and the desired-vs-set mismatch errors of executed rules, plus the
// drop errors of unmatched ones.
func (c *Controller) iftttPlan(p *stepPlan) core.Eval {
	obs := c.cfg.Residence.Weather.At(p.slot)
	amb := c.cfg.Residence.Zones[0].Ambient.AmbientAt(p.slot)
	env := rules.Env{
		Season:      obs.Season,
		Condition:   obs.Condition,
		OutdoorTemp: obs.Temperature.Celsius(),
		Light:       amb.Light,
	}
	outputs := rules.Outputs(c.cfg.Residence.IFTTT, env)

	var eval core.Eval
	for i, r := range p.active {
		set, ok := outputs[r.Action]
		p.sol[i] = ok
		if !ok {
			// Unmatched: falls back to ambient, like a drop.
			zoneAmb := c.cfg.Residence.Zones[r.Zone].Ambient.AmbientAt(p.slot)
			actual := zoneAmb.Temperature
			if r.Action == rules.ActionSetLight {
				actual = zoneAmb.Light
			}
			eval.Error += c.model.Error(r.Action, r.Value, actual)
			continue
		}
		p.setpoints[i] = set
		eval.Energy += p.devs[i].EnergyPerSlot(time.Hour).KWh()
		eval.Error += c.model.Error(r.Action, r.Value, set)
	}
	return eval
}

// apply is the cycle's second stage. It carries plan p out in one fixed
// order: firewall and actuation, journal, ledger settle and accounting,
// history, metrics, publish. Manual mode actuates nothing and leaves
// the firewall as it is. A binding error stops nothing: every rule is
// still actuated and recorded, and the first error is returned.
//
// Actuation opens the firewall for the cycle's own commands: the block
// set is cleared, every active rule is actuated in rule order (executed
// ones at their setpoint, dropped ones off), then the cycle's drops
// replace the set. The installed set is thus exactly this cycle's
// drops, so a block whose rule is no longer active does not outlive
// it, and when one device backs both an executed and a dropped rule the
// block wins. Command waits on stepMu, so no manual command sees the
// open set.
func (c *Controller) apply(p *stepPlan, traceID string) (StepReport, error) {
	var firstErr error
	if c.cfg.Mode != ModeManual {
		sc := &c.scratch
		sc.blocks = sc.blocks[:0]
		c.fw.Replace(nil)
		for i, r := range p.active {
			var err error
			if p.sol[i] {
				err = c.binding.Apply(p.devs[i], p.setpoints[i])
			} else {
				err = c.binding.TurnOff(p.devs[i])
				sc.blocks = append(sc.blocks, firewall.BlockRule{
					Addr:   p.devs[i].Addr,
					Reason: "meta-rule " + r.ID + " dropped by " + c.cfg.Mode.String(),
					Trace:  traceID,
				})
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		c.fw.Replace(sc.blocks)
	}

	// Journal the verdicts the planner did not: every rule in manual and
	// IFTTT mode, only necessity rules under EP.
	for i := range p.active {
		if c.rec == nil || (c.cfg.Mode == ModeEP && !p.active[i].Necessity) {
			continue
		}
		delta := p.drops[i]
		if p.sol[i] {
			delta = 0
		}
		c.rec.Record(&p.active[i], p.sol[i], journal.FlipNever, p.budget-p.eval.Energy,
			p.devs[i].EnergyPerSlot(time.Hour).KWh(), delta)
	}

	c.ledger.Settle(p.budget, p.eval.Energy)
	report := StepReport{Time: p.slot, Budget: p.budget, Energy: p.eval.Energy, Error: p.eval.Error}
	report.Executed, report.Dropped = splitNames(p.active, p.sol)
	c.mu.Lock()
	c.totalEnergy += p.eval.Energy
	c.totalError += p.eval.Error
	c.active += int64(len(p.active))
	c.executed += int64(len(report.Executed))
	c.steps++
	for i, r := range p.active {
		if !p.sol[i] {
			c.ownerErr[r.Owner] += p.drops[i]
			if report.PerRule == nil {
				report.PerRule = make(map[string]float64)
			}
			report.PerRule[r.ID] = p.drops[i]
		}
		c.ownerActive[r.Owner]++
	}
	if len(c.history) < historyCap {
		// Grow by append's doubling, except the growth that would pass
		// historyCap: that one is exactly historyCap, where append would
		// leave a 256-slot array behind a 168-report ring.
		if n := len(c.history); n == cap(c.history) && 2*n > historyCap {
			grown := make([]StepReport, n, historyCap)
			copy(grown, c.history)
			c.history = grown
		}
		c.history = append(c.history, report)
	} else {
		c.history[c.historyAt] = report
		c.historyAt = (c.historyAt + 1) % historyCap
	}
	// Only steps write the ring and stepMu is held, so the slot stays
	// this report until the step ends: the plan publish below marshals
	// it in place instead of boxing a copy of the report.
	last := &c.history[c.lastIndexLocked()]
	c.mu.Unlock()

	// Every active rule lands in exactly one of Executed/Dropped, so
	// these satisfy considered == executed + dropped by construction —
	// the invariant /metrics scrapers can assert.
	metrics.RulesConsidered.Add(uint64(len(p.active)))
	metrics.RulesExecuted.Add(uint64(len(report.Executed)))
	metrics.RulesDropped.Add(uint64(len(report.Dropped)))
	metrics.EnergyConsumedKWh.Add(p.eval.Energy)
	metrics.ConvenienceErrorSum.Add(p.eval.Error)

	// Stream the cycle's outcome: the verdict, then the block set it
	// left installed.
	c.publishStream(stream.KindPlan, last)
	c.publishStream(stream.KindFirewall, c.fw.Rules())
	return report, firstErr
}

// splitNames builds a report's Executed and Dropped lists, each sorted,
// on one exact-size backing array. The history ring keeps reports, so
// the array is fresh per report, never step scratch. An empty list
// stays nil, so the report's JSON is unchanged.
func splitNames(activeRules []rules.MetaRule, sol core.Solution) (executed, dropped []string) {
	if len(activeRules) == 0 {
		return nil, nil
	}
	nExec := sol.CountOn()
	names := make([]string, len(activeRules))
	e, d := 0, nExec
	for i := range activeRules {
		if sol[i] {
			names[e] = activeRules[i].ID
			e++
		} else {
			names[d] = activeRules[i].ID
			d++
		}
	}
	if nExec > 0 {
		executed = names[:nExec:nExec]
		sort.Strings(executed)
	}
	if nExec < len(names) {
		dropped = names[nExec:]
		sort.Strings(dropped)
	}
	return executed, dropped
}

// lastIndexLocked is the history slot of the newest report; the ring
// must be non-empty. Before the ring fills historyAt stays 0.
func (c *Controller) lastIndexLocked() int {
	return (c.historyAt + len(c.history) - 1) % len(c.history)
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
	if len(c.history) == 0 {
		return StepReport{}, false
	}
	return c.history[c.lastIndexLocked()], true
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
// still applies: commands to blocked devices fail with ErrBlocked. It
// holds stepMu, so it runs between planning cycles and always checks
// the block set a whole cycle installed.
func (c *Controller) Command(deviceID string, value float64) error {
	dev, _, ok := c.registry.Get(deviceID)
	if !ok {
		return fmt.Errorf("controller: unknown device %q", deviceID)
	}
	c.stepMu.Lock()
	defer c.stepMu.Unlock()
	return c.binding.Apply(dev, value)
}
