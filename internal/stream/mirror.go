package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Mirror is the subscriber side of the stream: a local replica of the
// hub's component state, advanced by snapshots and delta batches. It is
// safe for concurrent use — a watcher goroutine applies updates while
// readers query.
type Mirror struct {
	mu       sync.RWMutex
	instance string
	seq      uint64
	state    map[string]json.RawMessage
}

// NewMirror returns an empty mirror (instance "", seq 0 — a position no
// hub will resume, so the first sync always starts from a snapshot).
func NewMirror() *Mirror {
	return &Mirror{state: make(map[string]json.RawMessage)}
}

// Position returns the mirror's resume coordinates.
func (m *Mirror) Position() (instance string, seq uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.instance, m.seq
}

// Seq returns the sequence number of the last applied change.
func (m *Mirror) Seq() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.seq
}

// ApplySnapshot replaces the mirror's state wholesale.
func (m *Mirror) ApplySnapshot(s Snapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.instance = s.Instance
	m.seq = s.Seq
	m.state = make(map[string]json.RawMessage, len(s.State))
	for k, v := range s.State {
		cp := make(json.RawMessage, len(v))
		copy(cp, v)
		m.state[k] = cp
	}
}

// ApplyBatch applies a delta batch. The batch must continue the
// mirror's current instance (enforced, not assumed): a cross-instance
// batch is rejected so a watcher bug cannot silently interleave two
// producer lifetimes. Events at or below the mirror's sequence number
// are skipped — replays are harmless. An event without data deletes
// its component instead of storing an empty value; a hub never sends
// one, so this only keeps a malformed batch from corrupting the state.
func (m *Mirror) ApplyBatch(b Batch) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b.Instance != m.instance {
		return fmt.Errorf("stream: batch instance %q does not continue mirror instance %q", b.Instance, m.instance)
	}
	for _, ev := range b.Events {
		if ev.Seq <= m.seq {
			continue
		}
		key := ev.Key()
		if ev.Data == nil {
			delete(m.state, key)
		} else {
			m.state[key] = append(json.RawMessage(nil), ev.Data...)
		}
		m.seq = ev.Seq
	}
	if b.Through > m.seq {
		m.seq = b.Through
	}
	return nil
}

// Get returns the raw value of (site, kind), or ok=false when absent.
func (m *Mirror) Get(site string, kind Kind) (json.RawMessage, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.state[componentKey(site, kind)]
	if !ok {
		return nil, false
	}
	return append(json.RawMessage(nil), v...), true
}

// Decode unmarshals the value of (site, kind) into out; ok reports
// whether the component exists.
func (m *Mirror) Decode(site string, kind Kind, out any) (bool, error) {
	raw, ok := m.Get(site, kind)
	if !ok {
		return false, nil
	}
	return true, json.Unmarshal(raw, out)
}

// Keys returns the component keys present, sorted.
func (m *Mirror) Keys() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	keys := make([]string, 0, len(m.state))
	for k := range m.state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Canonical renders the mirror's state as canonical JSON — components
// keyed and sorted, values exactly as published. Two mirrors holding
// the same state render byte-identically regardless of how they got
// there (snapshot, deltas, or a poll-built reconstruction), which is
// the equivalence harness's comparison key. The sequence position is
// deliberately excluded: a poll-built mirror has no sequence numbers,
// and equivalence is about state, not transport history.
func (m *Mirror) Canonical() []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out, err := json.Marshal(m.state)
	if err != nil {
		// Values are validated RawMessage produced by json.Compact;
		// marshaling a map of them cannot fail.
		panic("stream: canonical marshal: " + err.Error())
	}
	return out
}

// Set installs a component value directly — the poll-built
// construction path (fallback mode and the equivalence harness). The
// value is compacted to the same canonical bytes Publish would store;
// like Publish, Set keeps data itself when it is already compact.
func (m *Mirror) Set(site string, kind Kind, data []byte) error {
	var compact []byte
	if data != nil {
		var buf bytes.Buffer
		var err error
		if compact, err = compactJSON(&buf, data); err != nil {
			return fmt.Errorf("stream: set %s: %w", componentKey(site, kind), err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	key := componentKey(site, kind)
	if compact == nil {
		delete(m.state, key)
		return nil
	}
	m.state[key] = compact
	return nil
}
