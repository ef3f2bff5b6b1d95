// Package stream is the versioned decision stream behind the
// cloud↔edge delta-sync protocol (DESIGN.md §16): a Hub holds the
// latest value of each state component (the Meta-Rule Table, the last
// planner verdict, the firewall block set), stamps every change with a
// monotonic sequence number, and buffers a bounded ring of deltas so a
// subscriber can resume from its last seen sequence number instead of
// re-downloading the world. A Mirror is the subscriber half: it applies
// snapshots and deltas and can render its state canonically, which is
// how the equivalence harness proves a sync-maintained mirror is
// bit-identical to a poll-built one.
//
// Protocol shape (served over HTTP by the handlers in http.go; the
// core types are transport-agnostic):
//
//   - On connect a subscriber fetches Snapshot(): every component's
//     current value plus the hub's instance token and sequence number.
//   - It then long-polls Since(instance, seq): a batch of coalesced
//     deltas in (seq, Seq()], or ok=false when the hub cannot resume
//     that position (unknown instance — the producer restarted — or a
//     gap older than the ring), in which case the subscriber refetches
//     the snapshot.
//   - Wait blocks until the sequence number advances past a position,
//     the context ends, or the hub closes — the server half of a long
//     poll. It takes no timeout of its own: deadlines are the caller's
//     context, so the core never reads a clock (the HTTP handlers arm
//     context timeouts for long-poll holds, never wall-clock reads).
//
// Coalescing rule: a delta batch carries at most one event per
// component — the newest — but is stamped with the hub's sequence
// number at batch time (Batch.Through). Because every event carries the
// component's full value (state replacement, not edits), skipping
// superseded events cannot change the state a mirror converges to, and
// resuming from Through is seamless.
package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Kind names a state component carried by the stream.
type Kind string

// Component kinds published by a Local Controller.
const (
	// KindMRT is the active Meta-Rule Table (rules.MRT).
	KindMRT Kind = "mrt"
	// KindPlan is the most recent planner verdict (controller.StepReport).
	KindPlan Kind = "plan"
	// KindFirewall is the firewall's block set, the sorted iptables-style
	// rule strings ([]string).
	KindFirewall Kind = "firewall"
)

// Event is one delta: the full new value of one component. A hub never
// publishes an event without Data (see Mirror.ApplyBatch for how a
// mirror treats one).
type Event struct {
	Seq  uint64          `json:"seq"`
	Kind Kind            `json:"kind"`
	Site string          `json:"site,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Key is the component identity an event addresses: the kind alone
// for an empty site, "site/kind" otherwise.
func (e Event) Key() string { return componentKey(e.Site, e.Kind) }

func componentKey(site string, kind Kind) string {
	if site == "" {
		return string(kind)
	}
	return site + "/" + string(kind)
}

// Snapshot is the full state at one sequence number.
type Snapshot struct {
	// Instance identifies one hub lifetime. A subscriber holding deltas
	// from another instance must resynchronize: sequence numbers are not
	// comparable across restarts.
	Instance string                     `json:"instance"`
	Seq      uint64                     `json:"seq"`
	State    map[string]json.RawMessage `json:"state"`
}

// Batch is a resumed subscriber's delta delivery: every component that
// changed in (Since, Through], newest value only, in ascending sequence
// order.
type Batch struct {
	Instance string  `json:"instance"`
	Through  uint64  `json:"through"`
	Events   []Event `json:"events"`
}

// DefaultRingCap bounds the delta ring when NewHub is given a
// non-positive capacity: enough for a day of hourly plan+firewall
// deltas with room for MRT churn.
const DefaultRingCap = 256

// Hub is the producer side of the stream. It is safe for concurrent
// use. The zero value is not usable; construct with NewHub.
//
// A publish with nobody parked in Wait allocates no wake-up channel:
// the first Wait to park makes one, and the next publish (or Close)
// closes it and leaves none behind. Publish keeps the caller's slice
// when it is already compact JSON, so a caller must not modify data it
// has published.
type Hub struct {
	mu       sync.Mutex
	instance string
	seq      uint64
	state    map[string]json.RawMessage
	compSeq  map[string]uint64 // last sequence that touched each component
	ring     []Event           // circular, oldest at start
	start    int
	count    int
	notify   chan struct{} // made by a parking Wait, closed by the next publish; nil when nobody waits
	closed   bool
}

// compactBufs recycles Publish's compaction scratch across every hub, so
// a hub holds no buffer of its own between publishes.
var compactBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// NewHub returns a hub. instance tokens one producer lifetime (restarts
// must mint a new one); ringCap bounds the delta ring (<= 0 means
// DefaultRingCap).
func NewHub(instance string, ringCap int) *Hub {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Hub{
		instance: instance,
		state:    make(map[string]json.RawMessage),
		compSeq:  make(map[string]uint64),
		ring:     make([]Event, 0, ringCap),
	}
}

// Instance returns the hub's lifetime token.
func (h *Hub) Instance() string { return h.instance }

// Publish installs data as the new value of (site, kind), stamps it
// with the next sequence number and wakes waiters. The data is
// compacted so published bytes are canonical regardless of the
// producer's encoder. Invalid JSON is rejected. Data that is already
// compact (json.Marshal output, say) is stored as is, without a copy;
// the caller must not modify it afterwards.
func (h *Hub) Publish(site string, kind Kind, data []byte) (uint64, error) {
	buf := compactBufs.Get().(*bytes.Buffer)
	compact, err := compactJSON(buf, data)
	if err == nil && len(compact) != len(data) {
		compact = bytes.Clone(compact) // buf goes back to the pool
	}
	compactBufs.Put(buf)
	if err != nil {
		return 0, fmt.Errorf("stream: publish %s: %w", componentKey(site, kind), err)
	}
	return h.install(Event{Kind: kind, Site: site, Data: compact}), nil
}

// compactJSON validates and canonicalizes an encoded value through buf,
// which it resets: whatever encoder produced the value, the result is
// whitespace-free, so snapshot-built, delta-built and poll-built
// mirrors compare equal. Compaction only deletes bytes, so the result
// is data itself when the lengths match and buf's bytes otherwise.
func compactJSON(buf *bytes.Buffer, data []byte) ([]byte, error) {
	buf.Reset()
	if err := json.Compact(buf, data); err != nil {
		return nil, err
	}
	if buf.Len() == len(data) {
		return data, nil
	}
	return buf.Bytes(), nil
}

// install appends the event under the next sequence number.
func (h *Hub) install(ev Event) uint64 {
	h.mu.Lock()
	h.seq++
	ev.Seq = h.seq
	key := ev.Key()
	h.state[key] = ev.Data
	h.compSeq[key] = ev.Seq
	if h.count < cap(h.ring) {
		h.ring = append(h.ring, ev)
		h.count++
	} else {
		h.ring[h.start] = ev
		h.start = (h.start + 1) % cap(h.ring)
	}
	ch := h.notify
	h.notify = nil
	h.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	return ev.Seq
}

// Seq returns the sequence number of the newest published event.
func (h *Hub) Seq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// ComponentSeq returns the sequence number of the last change to
// (site, kind) — the version the read surfaces expose as an ETag. Zero
// means the component has never been published.
func (h *Hub) ComponentSeq(site string, kind Kind) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.compSeq[componentKey(site, kind)]
}

// Snapshot returns the full current state.
func (h *Hub) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Snapshot{Instance: h.instance, Seq: h.seq, State: make(map[string]json.RawMessage, len(h.state))}
	for k, v := range h.state {
		s.State[k] = v
	}
	return s
}

// Since returns the coalesced deltas after seq. ok is false when the
// hub cannot resume that position: the instance token differs (producer
// restarted), seq runs ahead of the hub, or the ring has already
// dropped events the subscriber would need — all cases where only a
// fresh snapshot re-synchronizes. A resumable position with nothing new
// returns an empty batch.
func (h *Hub) Since(instance string, seq uint64) (Batch, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if instance != h.instance || seq > h.seq {
		return Batch{}, false
	}
	b := Batch{Instance: h.instance, Through: h.seq}
	if seq == h.seq {
		return b, true
	}
	oldest := h.seq - uint64(h.count) + 1
	if h.count == 0 || seq < oldest-1 {
		return Batch{}, false // the gap predates the ring
	}
	// Collect the suffix newer than seq, keeping only each component's
	// newest event (the coalescing rule: values are full replacements).
	latest := make(map[string]Event)
	for i := 0; i < h.count; i++ {
		ev := h.ring[(h.start+i)%cap(h.ring)]
		if ev.Seq > seq {
			latest[ev.Key()] = ev
		}
	}
	for _, ev := range latest {
		b.Events = append(b.Events, ev)
	}
	sort.Slice(b.Events, func(i, j int) bool { return b.Events[i].Seq < b.Events[j].Seq })
	return b, true
}

// Wait blocks until the hub's sequence number exceeds seq, the context
// ends, or the hub closes. It reports whether new events are available.
// The long-poll deadline is the caller's context — this package never
// arms a timer of its own.
func (h *Hub) Wait(ctx context.Context, seq uint64) bool {
	for {
		h.mu.Lock()
		if h.seq > seq {
			h.mu.Unlock()
			return true
		}
		if h.closed {
			h.mu.Unlock()
			return false
		}
		if h.notify == nil {
			h.notify = make(chan struct{})
		}
		ch := h.notify
		h.mu.Unlock()
		select {
		case <-ch:
			// re-check: the publish may predate our registration
		case <-ctx.Done():
			return false
		}
	}
}

// Close wakes every waiter and makes future Waits return immediately.
// Publishing to a closed hub is still allowed (shutdown is a transport
// concern; producers may flush final state).
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	ch := h.notify
	h.notify = nil
	h.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}
