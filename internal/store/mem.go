package store

import (
	"errors"
	"sort"
	"strings"
	"sync"
)

// MemDB is the pure in-memory Adapter backend: the exact semantics of
// DB — copy-on-read, copy-on-write, ErrClosed after Close — with no
// durability and no file layer underneath. It serves ephemeral daemons
// (imcfd -store-backend mem), tests that want store semantics without
// disk I/O, and the conformance suite's reference point.
type MemDB struct {
	mu     sync.RWMutex
	data   map[string][]byte
	closed bool
}

// OpenMem returns an empty in-memory store.
func OpenMem() *MemDB {
	return &MemDB{data: make(map[string][]byte)}
}

// Get returns the value stored at key. The returned slice is a copy the
// caller may retain.
func (m *MemDB) Get(key string) ([]byte, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.data[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true
}

// Put stores value at key.
func (m *MemDB) Put(key string, value []byte) error {
	if key == "" {
		return errors.New("store: empty key")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	m.data[key] = cp
	return nil
}

// Keys returns all keys with the given prefix, sorted.
func (m *MemDB) Keys(prefix string) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for k := range m.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// PutJSON marshals v and stores it at key.
func (m *MemDB) PutJSON(key string, v any) error { return putJSON(m, key, v) }

// GetJSON unmarshals the value at key into v, reporting whether the key
// existed.
func (m *MemDB) GetJSON(key string, v any) (bool, error) { return getJSON(m, key, v) }

// Probe verifies the (trivial) write path.
func (m *MemDB) Probe() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	return nil
}

// Close marks the store closed; the data is gone with the process. It
// is idempotent.
func (m *MemDB) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
