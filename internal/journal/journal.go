// Package journal is the Energy Planner's decision-provenance journal:
// a bounded, structured log holding one event per planner verdict —
// which rule, at which slot, executed or dropped, how much of E_p was
// left after the plan, and which k-opt iteration last flipped the bit.
// It is the subsystem that answers "why was rule R dropped at slot S"
// after the fact, from a live daemon (GET /debug/decisions) or from a
// persisted dump (cmd/imcf-explain over persistence's journal log).
//
// Events are produced by core's DecisionRecorder hook (the live
// controller and the simulator each install a Recorder that enriches
// the planner's index-based callbacks with rule identity, slot and
// trace ID) and land in a bounded ring of fixed-size blocks, each
// allocated the first time the ring reaches it, so a quiet journal
// holds only the blocks its events fill. A ring slot is a packed
// 104-byte form of the event, without Tenant, rebuilt into an Event
// (with its slot in UTC) on read; the sink receives the full Event.
// Appending is a mutex-guarded slot assignment — one block allocation
// per blockLen events until the ring reaches its cap, allocation-free
// after — so recording does not perturb the replay hot path. A caller
// that wants no provenance installs no journal.
package journal

import (
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// FlipIter sentinels, mirroring internal/core's FlipNever/FlipRepair
// (the packages are kept import-free of each other; the controller
// tests pin the correspondence).
const (
	// FlipNever marks a bit the search never flipped: it kept the value
	// the initialization strategy (or zero-gain pruning) gave it.
	FlipNever = -1
	// FlipRepair marks a bit switched off by the greedy feasibility
	// repair that runs after the search.
	FlipRepair = -2
)

// Verdict is a rule's planner outcome.
type Verdict uint8

// Verdicts.
const (
	// VerdictExecuted marks a rule admitted for execution.
	VerdictExecuted Verdict = iota + 1
	// VerdictDropped marks a rule dropped to hold the energy budget.
	VerdictDropped
)

// String returns the verdict's wire name.
func (v Verdict) String() string {
	switch v {
	case VerdictExecuted:
		return "executed"
	case VerdictDropped:
		return "dropped"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// ParseVerdict is the inverse of String for the wire names.
func ParseVerdict(s string) (Verdict, error) {
	switch s {
	case "executed":
		return VerdictExecuted, nil
	case "dropped":
		return VerdictDropped, nil
	default:
		return 0, fmt.Errorf("journal: unknown verdict %q", s)
	}
}

// MarshalJSON renders the verdict as its wire name.
func (v Verdict) MarshalJSON() ([]byte, error) { return json.Marshal(v.String()) }

// UnmarshalJSON parses the wire name.
func (v *Verdict) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseVerdict(s)
	if err != nil {
		return err
	}
	*v = parsed
	return nil
}

// Event is one planner verdict with its provenance. Slot is the
// decision slot (the controller's truncated cycle hour, or the first
// slot of the simulator's plan window); Window is the step/window
// ordinal within the producing run. EpRemainingKWh is the budget left
// after the whole plan (budget − F_E), EnergyKWh the rule's own cost,
// and FCEDelta the convenience error the verdict adds to F_CE (zero
// for executed rules). FlipIter is the k-opt iteration that last
// flipped the rule's bit, or a Flip* sentinel.
//
// Tenant is serving-time decoration only: a multi-home daemon stamps it
// onto copies when merging per-tenant journals for /debug/decisions.
// Producers never set it and the ring does not store it — each tenant's
// ring and persisted log hold the same bytes a single-home daemon would
// write, which is what lets the tenant-equivalence harness compare
// streams bit for bit.
type Event struct {
	Seq            uint64    `json:"seq"`
	Tenant         string    `json:"tenant,omitempty"`
	Slot           time.Time `json:"slot"`
	Window         int       `json:"window"`
	Rule           string    `json:"rule"`
	Owner          string    `json:"owner,omitempty"`
	Verdict        Verdict   `json:"verdict"`
	Trace          string    `json:"trace,omitempty"`
	EpRemainingKWh float64   `json:"epRemainingKWh"`
	EnergyKWh      float64   `json:"energyKWh"`
	FCEDelta       float64   `json:"fceDelta"`
	FlipIter       int       `json:"flipIter"`
}

// FlipIterString renders the k-opt provenance of the event's bit in
// words — the line imcf-explain prints.
func (e Event) FlipIterString() string {
	switch e.FlipIter {
	case FlipNever:
		return "held from initialization (never flipped by the search)"
	case FlipRepair:
		return "switched off by the feasibility repair"
	default:
		return fmt.Sprintf("last flipped at k-opt iteration %d", e.FlipIter)
	}
}

// Sink receives every appended event, synchronously — the persistence
// hook (see persistence.JournalLog). Sink errors are counted, not
// propagated: provenance must never fail a planning cycle.
type Sink interface {
	AppendEvent(Event) error
}

// packed is the ring's 104-byte form of an Event (an Event is 144).
// The slot is kept as Unix seconds plus nanoseconds (read back in UTC,
// the form both producers emit), Window and FlipIter as int32 (FlipIter
// is below core's MaxIter, which Validate caps at math.MaxInt32), and
// there is no Tenant, which is serving-time decoration. Fields are in
// decreasing alignment so the struct carries no interior padding.
type packed struct {
	seq      uint64
	sec      int64
	rem      float64
	energy   float64
	fce      float64
	rule     string
	owner    string
	trace    string
	nsec     int32
	window   int32
	flipIter int32
	verdict  Verdict
}

// pack returns ev in its ring form.
func pack(ev Event) packed {
	return packed{
		seq:      ev.Seq,
		sec:      ev.Slot.Unix(),
		rem:      ev.EpRemainingKWh,
		energy:   ev.EnergyKWh,
		fce:      ev.FCEDelta,
		rule:     ev.Rule,
		owner:    ev.Owner,
		trace:    ev.Trace,
		nsec:     int32(ev.Slot.Nanosecond()),
		window:   int32(ev.Window),
		flipIter: int32(ev.FlipIter),
		verdict:  ev.Verdict,
	}
}

// event rebuilds the Event that p was packed from.
func (p *packed) event() Event {
	return Event{
		Seq:            p.seq,
		Slot:           time.Unix(p.sec, int64(p.nsec)).UTC(),
		Window:         int(p.window),
		Rule:           p.rule,
		Owner:          p.owner,
		Verdict:        p.verdict,
		Trace:          p.trace,
		EpRemainingKWh: p.rem,
		EnergyKWh:      p.energy,
		FCEDelta:       p.fce,
		FlipIter:       int(p.flipIter),
	}
}

// Journal is the bounded event ring. It is safe for concurrent use.
type Journal struct {
	mu sync.Mutex
	// blocks holds the ring's slots blockLen at a time; slot i lives in
	// blocks[i/blockLen], which stays nil until the ring first reaches
	// it. Blocks are never copied or freed.
	blocks   [][]packed
	capacity int
	at       int
	n        int
	seq      uint64
	sink     Sink
}

// DefaultCap is the default ring capacity: a week of hourly cycles over
// a few dozen rules.
const DefaultCap = 4096

// blockLen is the number of events per ring block: the allocation unit
// of a growing ring.
const blockLen = 256

// New returns a journal keeping the most recent capacity
// events (capacity < 1 means DefaultCap). No event storage is
// allocated until events arrive.
func New(capacity int) *Journal {
	if capacity < 1 {
		capacity = DefaultCap
	}
	return &Journal{
		blocks:   make([][]packed, (capacity+blockLen-1)/blockLen),
		capacity: capacity,
	}
}

// put stores ev in the next ring slot, allocating the slot's block on
// first use, and reports whether it overwrote (evicted) an event. The
// caller holds mu.
func (j *Journal) put(ev Event) bool {
	b := j.at / blockLen
	if j.blocks[b] == nil {
		j.blocks[b] = make([]packed, min(blockLen, j.capacity-b*blockLen))
	}
	j.blocks[b][j.at%blockLen] = pack(ev)
	j.at++
	if j.at == j.capacity {
		j.at = 0
	}
	if j.n < j.capacity {
		j.n++
		return false
	}
	return true
}

// slot returns the event in ring slot i. The caller holds mu.
func (j *Journal) slot(i int) Event { return j.blocks[i/blockLen][i%blockLen].event() }

// SetSink installs the persistence sink receiving every future event.
func (j *Journal) SetSink(s Sink) {
	j.mu.Lock()
	j.sink = s
	j.mu.Unlock()
}

// Append records one event, stamping its sequence number. The slot
// assignment allocates only the first time the ring reaches a block;
// with a sink installed the event is also handed to it (sink failures
// increment imcf_journal_sink_errors_total and are otherwise
// swallowed).
func (j *Journal) Append(ev Event) {
	j.mu.Lock()
	j.seq++
	ev.Seq = j.seq
	if j.put(ev) {
		evicted.Inc()
	}
	sink := j.sink
	j.mu.Unlock()
	events.Inc()
	if sink != nil {
		if err := sink.AppendEvent(ev); err != nil {
			sinkErrors.Inc()
		}
	}
}

// Preload restores one event into the ring without stamping a sequence
// number or feeding the sink — the restart-replay path (the daemon
// preloads the persisted log on boot, then keeps appending to it).
func (j *Journal) Preload(ev Event) {
	j.mu.Lock()
	if ev.Seq > j.seq {
		j.seq = ev.Seq
	}
	j.put(ev)
	j.mu.Unlock()
}

// Len returns the number of events currently retained.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Filter selects events. Zero-valued fields match everything; Limit
// bounds the result to the most recent matches (0 means all retained).
type Filter struct {
	Rule    string
	Owner   string
	Verdict Verdict
	Trace   string
	// Tenant matches the serving-time tenant decoration (multi-home
	// daemons); events without one only match an empty Tenant filter.
	Tenant string
	// Slot, when non-zero, matches events whose Slot equals it.
	Slot  time.Time
	Limit int
}

// Match reports whether ev passes the filter.
func (f Filter) Match(ev Event) bool {
	if f.Rule != "" && ev.Rule != f.Rule {
		return false
	}
	if f.Owner != "" && ev.Owner != f.Owner {
		return false
	}
	if f.Verdict != 0 && ev.Verdict != f.Verdict {
		return false
	}
	if f.Trace != "" && ev.Trace != f.Trace {
		return false
	}
	if f.Tenant != "" && ev.Tenant != f.Tenant {
		return false
	}
	if !f.Slot.IsZero() && !ev.Slot.Equal(f.Slot) {
		return false
	}
	return true
}

// ParseFilter builds a filter from /debug/decisions query parameters:
// rule, owner, verdict (executed|dropped), trace, tenant, slot
// (RFC 3339) and limit.
func ParseFilter(q url.Values) (Filter, error) {
	f := Filter{
		Rule:   q.Get("rule"),
		Owner:  q.Get("owner"),
		Trace:  q.Get("trace"),
		Tenant: q.Get("tenant"),
	}
	if s := q.Get("verdict"); s != "" {
		v, err := ParseVerdict(s)
		if err != nil {
			return Filter{}, err
		}
		f.Verdict = v
	}
	if s := q.Get("slot"); s != "" {
		at, err := time.Parse(time.RFC3339, s)
		if err != nil {
			return Filter{}, fmt.Errorf("journal: bad slot: %w", err)
		}
		f.Slot = at
	}
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return Filter{}, fmt.Errorf("journal: bad limit %q", s)
		}
		f.Limit = n
	}
	return f, nil
}

// Recent returns the retained events passing the filter, oldest first.
func (j *Journal) Recent(f Filter) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, j.n)
	start := 0
	if j.n == j.capacity {
		start = j.at
	}
	for i := 0; i < j.n; i++ {
		ev := j.slot((start + i) % j.capacity)
		if f.Match(ev) {
			out = append(out, ev)
		}
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}
