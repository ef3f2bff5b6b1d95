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
// trace ID) and land in a bounded ring. The ring does not hold Events:
// each verdict is a 40-byte, pointer-free entry (its three float64s,
// FlipIter, verdict, frame id and rule-table row), and what the
// verdicts of one bound plan share (first seq, slot, window, trace)
// is one 40-byte frame. A frame ends wherever slot, window, trace or
// seq contiguity breaks, so preloaded logs and one-event rings need no
// special case. (rule, owner) pairs live once in a refcounted table
// bounded by the retained entries. Reads rebuild the Event, with its
// slot in UTC and without Tenant; the sink receives the full Event.
// Entries are held in fixed blocks allocated the first time the ring
// reaches them, frames in small blocks recycled once their frames are
// evicted, so a quiet journal holds only what its events fill and a
// warm Append allocates nothing; recording does not perturb the replay
// hot path. A caller that wants no provenance installs no journal.
package journal

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"slices"
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

// entry is the ring's 40-byte, pointer-free form of one verdict (an
// Event is 144 bytes). It keeps the verdict's own numbers (the three
// float64s exact, FlipIter as int32, which holds because
// core.Config.Validate caps MaxIter at math.MaxInt32) and points at
// what it shares with its neighbours: the frame of its plan and the
// (rule, owner) pair in the journal's rule table. Having no pointer, a
// block of entries is never scanned by the garbage collector. Fields
// are in decreasing alignment, so the only padding is the last byte.
type entry struct {
	rem      float64
	energy   float64
	fce      float64
	flipIter int32
	rule     uint32 // index into Journal.rules
	frame    uint32 // frame id: its block times frameBlockLen plus its slot there
	off      uint16 // seq minus the frame's first seq
	verdict  Verdict
}

// frame is the 40-byte part a run of events shares: a bound plan's
// slot (Unix seconds plus nanoseconds, read back in UTC, the form both
// producers emit), window ordinal and trace, and the seq of its first
// event; the events of a frame have consecutive seqs. There is no
// Tenant, which is serving-time decoration.
type frame struct {
	seq    uint64
	sec    int64
	trace  string
	nsec   int32
	window int32
}

// ruleRef is one row of the journal's rule table: a (rule, owner) pair
// and the number of retained entries naming it. A row whose count
// falls to zero is cleared and reused.
type ruleRef struct {
	rule  string
	owner string
	refs  uint32
}

// ruleKey indexes the rule table once it outgrows a linear scan.
type ruleKey struct{ rule, owner string }

// Journal is the bounded event ring. It is safe for concurrent use.
type Journal struct {
	mu sync.Mutex
	// blocks holds the ring's entries blockLen at a time; ring slot i
	// lives in blocks[i/blockLen], which stays nil until the ring first
	// reaches it. Blocks are never copied or freed.
	blocks   [][]entry
	capacity int
	at       int
	n        int
	seq      uint64
	sink     Sink

	// frames holds the frames frameBlockLen at a time, and frameLive
	// counts the retained entries whose frame is in each block. New
	// frames fill the block of the newest frame, cur; a block whose
	// count falls to zero while not cur goes on freeFrames, to be
	// refilled before any new block is allocated. Frames are opened and
	// retired in order, so the blocks in use never exceed the live
	// frames' share plus one.
	frames     []*[frameBlockLen]frame
	frameLive  []int32
	freeFrames []uint32
	cur        uint32
	curOff     uint16

	// rules is the rule table, freeRules its cleared rows. Lookups scan
	// it until it outgrows smallRules rows; ruleIdx indexes it from then
	// on.
	rules     []ruleRef
	freeRules []uint32
	ruleIdx   map[ruleKey]uint32
}

// DefaultCap is the default ring capacity: a week of hourly cycles over
// a few dozen rules.
const DefaultCap = 4096

// blockLen is the number of entries per ring block: the allocation
// unit of a growing ring (256 entries fill the 10,240 B size class).
const blockLen = 256

// frameBlockLen is the number of frames per frame block: 51 frames
// and the 8-byte header the allocator puts before a pointer-holding
// object larger than 512 B fill the 2,048 B size class exactly.
const frameBlockLen = 51

// smallRules is the rule-table size up to which lookups scan the
// table instead of keeping an index: a scan needs no allocation, so a
// journal over a few rules fits in what New allocates (12 rows, the
// 480 B size class).
const smallRules = 12

// New returns a journal keeping the most recent capacity events
// (capacity < 1 means DefaultCap). Entry blocks are allocated as
// events arrive; New allocates the first frame block and room for a
// small rule table, so that the events of one plan over a few rules
// cost nothing but their entries.
func New(capacity int) *Journal {
	if capacity < 1 {
		capacity = DefaultCap
	}
	return &Journal{
		blocks:    make([][]entry, (capacity+blockLen-1)/blockLen),
		capacity:  capacity,
		frames:    []*[frameBlockLen]frame{new([frameBlockLen]frame)},
		frameLive: []int32{0},
		// The first frame opened finds this (empty, full) block and
		// starts it over at slot 0.
		cur:   frameBlockLen - 1,
		rules: make([]ruleRef, 0, smallRules),
	}
}

// put stores ev in the next ring slot, allocating the slot's block on
// first use, and reports whether it overwrote (evicted) an event. ev
// joins the newest frame when it continues it (same slot, window and
// trace, and the next seq); otherwise it opens a new one. The caller
// holds mu.
func (j *Journal) put(ev Event) bool {
	sec, nsec, window := ev.Slot.Unix(), int32(ev.Slot.Nanosecond()), int32(ev.Window)
	f := &j.frames[j.cur/frameBlockLen][j.cur%frameBlockLen]
	joins := j.n > 0 && j.curOff < math.MaxUint16 && ev.Seq == f.seq+uint64(j.curOff)+1 &&
		f.sec == sec && f.nsec == nsec && f.window == window && f.trace == ev.Trace

	b := j.at / blockLen
	if j.blocks[b] == nil {
		j.blocks[b] = make([]entry, min(blockLen, j.capacity-b*blockLen))
	}
	e := &j.blocks[b][j.at%blockLen]
	full := j.n == j.capacity
	if full {
		j.release(e)
	}
	if joins {
		j.curOff++
	} else {
		j.openFrame(frame{seq: ev.Seq, sec: sec, trace: ev.Trace, nsec: nsec, window: window})
	}
	*e = entry{
		rem:      ev.EpRemainingKWh,
		energy:   ev.EnergyKWh,
		fce:      ev.FCEDelta,
		flipIter: int32(ev.FlipIter),
		rule:     j.ruleRow(ev.Rule, ev.Owner),
		frame:    j.cur,
		off:      j.curOff,
		verdict:  ev.Verdict,
	}
	j.frameLive[j.cur/frameBlockLen]++

	j.at++
	if j.at == j.capacity {
		j.at = 0
	}
	if !full {
		j.n++
	}
	return full
}

// release drops the evicted entry e's references to its frame block and
// rule row, retiring either when nothing retained uses it any more. The
// caller holds mu.
func (j *Journal) release(e *entry) {
	b := e.frame / frameBlockLen
	if j.frameLive[b]--; j.frameLive[b] == 0 && b != j.cur/frameBlockLen {
		clear(j.frames[b][:])
		j.freeFrames = append(j.freeFrames, b)
	}
	r := &j.rules[e.rule]
	if r.refs--; r.refs == 0 {
		if j.ruleIdx != nil {
			delete(j.ruleIdx, ruleKey{r.rule, r.owner})
		}
		*r = ruleRef{}
		j.freeRules = append(j.freeRules, e.rule)
	}
}

// openFrame makes f the newest frame: in the next slot of the current
// block, or, when that block is full, in the same block started over if
// nothing retained uses it, else in a recycled or new block. The caller
// holds mu.
func (j *Journal) openFrame(f frame) {
	b, s := j.cur/frameBlockLen, j.cur%frameBlockLen+1
	if s == frameBlockLen {
		s = 0
		switch {
		case j.frameLive[b] == 0:
			clear(j.frames[b][:])
		case len(j.freeFrames) > 0:
			n := len(j.freeFrames)
			b, j.freeFrames = j.freeFrames[n-1], j.freeFrames[:n-1]
		default:
			b = uint32(len(j.frames))
			j.frames = append(j.frames, new([frameBlockLen]frame))
			j.frameLive = append(j.frameLive, 0)
		}
	}
	j.cur, j.curOff = b*frameBlockLen+s, 0
	j.frames[b][s] = f
}

// ruleRow returns the rule-table row of (rule, owner) with one more
// reference, adding the row if no retained entry names the pair. The
// caller holds mu.
func (j *Journal) ruleRow(rule, owner string) uint32 {
	i, ok := uint32(0), false
	if j.ruleIdx != nil {
		i, ok = j.ruleIdx[ruleKey{rule, owner}]
	} else {
		for k := range j.rules {
			if r := &j.rules[k]; r.refs > 0 && r.rule == rule && r.owner == owner {
				i, ok = uint32(k), true
				break
			}
		}
	}
	if !ok {
		if n := len(j.freeRules); n > 0 {
			i, j.freeRules = j.freeRules[n-1], j.freeRules[:n-1]
			j.rules[i] = ruleRef{rule: rule, owner: owner}
		} else {
			i = uint32(len(j.rules))
			j.rules = append(j.rules, ruleRef{rule: rule, owner: owner})
		}
		if j.ruleIdx == nil && len(j.rules) > smallRules {
			j.ruleIdx = make(map[ruleKey]uint32, len(j.rules))
			for k, r := range j.rules {
				if r.refs > 0 {
					j.ruleIdx[ruleKey{r.rule, r.owner}] = uint32(k)
				}
			}
		}
		if j.ruleIdx != nil {
			j.ruleIdx[ruleKey{rule, owner}] = i
		}
	}
	j.rules[i].refs++
	return i
}

// event rebuilds the Event in ring slot i. The caller holds mu.
func (j *Journal) event(i int) Event {
	e := &j.blocks[i/blockLen][i%blockLen]
	f := &j.frames[e.frame/frameBlockLen][e.frame%frameBlockLen]
	r := &j.rules[e.rule]
	return Event{
		Seq:            f.seq + uint64(e.off),
		Slot:           time.Unix(f.sec, int64(f.nsec)).UTC(),
		Window:         int(f.window),
		Rule:           r.rule,
		Owner:          r.owner,
		Verdict:        e.verdict,
		Trace:          f.trace,
		EpRemainingKWh: e.rem,
		EnergyKWh:      e.energy,
		FCEDelta:       e.fce,
		FlipIter:       int(e.flipIter),
	}
}

// SetSink installs the persistence sink receiving every future event.
func (j *Journal) SetSink(s Sink) {
	j.mu.Lock()
	j.sink = s
	j.mu.Unlock()
}

// Append records one event, stamping its sequence number. It
// allocates only when the ring first reaches an entry block, when the
// frames in use outgrow the frame blocks held, or when the rule table
// grows to take a (rule, owner) pair no retained event names; with a sink
// installed the event is also handed to it (sink failures
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
		ev := j.event((start + i) % j.capacity)
		if f.Match(ev) {
			out = append(out, ev)
		}
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// slotPos orders retained events by slot, then by ring order (pos is
// the event's index from the oldest retained).
type slotPos struct {
	sec  int64
	nsec int32
	pos  int
}

func (a slotPos) compare(b slotPos) int {
	return cmp.Or(cmp.Compare(a.sec, b.sec), cmp.Compare(a.nsec, b.nsec), cmp.Compare(a.pos, b.pos))
}

// Latest returns the retained events passing the filter in slot order,
// ties oldest first — the order a stable sort by slot gives Recent's
// result — and, when f.Limit > 0, only the last f.Limit of that order.
// It selects before it copies, so a small limit reads a full ring
// without copying it.
func (j *Journal) Latest(f Filter) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	start := 0
	if j.n == j.capacity {
		start = j.at
	}
	limit := j.n
	if f.Limit > 0 {
		limit = min(limit, f.Limit)
	}
	// keep is a min-heap of the greatest matches seen so far.
	keep := make([]slotPos, 0, limit)
	for i := 0; i < j.n; i++ {
		ev := j.event((start + i) % j.capacity)
		if !f.Match(ev) {
			continue
		}
		k := slotPos{ev.Slot.Unix(), int32(ev.Slot.Nanosecond()), i}
		switch {
		case len(keep) < limit:
			keep = append(keep, k)
			for c := len(keep) - 1; c > 0; {
				p := (c - 1) / 2
				if keep[c].compare(keep[p]) >= 0 {
					break
				}
				keep[c], keep[p] = keep[p], keep[c]
				c = p
			}
		case keep[0].compare(k) < 0:
			keep[0] = k
			for p := 0; ; {
				c := 2*p + 1
				if c >= len(keep) {
					break
				}
				if c+1 < len(keep) && keep[c+1].compare(keep[c]) < 0 {
					c++
				}
				if keep[c].compare(keep[p]) >= 0 {
					break
				}
				keep[c], keep[p] = keep[p], keep[c]
				p = c
			}
		}
	}
	slices.SortFunc(keep, slotPos.compare)
	out := make([]Event, len(keep))
	for i, k := range keep {
		out[i] = j.event((start + k.pos) % j.capacity)
	}
	return out
}
