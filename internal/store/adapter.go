package store

import (
	"encoding/json"
	"fmt"
)

// Adapter is the storage seam of the controller and daemon: the
// operations every backend must provide, regardless of how (or
// whether) it persists them. It carries exactly the traffic the
// program makes — the controller's MRT GetJSON/PutJSON, the daemon's
// degraded-mode Probe, and Close — plus Get, Put and Keys beneath
// them. Two implementations ship:
//
//   - DB — the WAL+snapshot store with group-commit fsync batching,
//     the durable default;
//   - MemDB — pure in-memory, for tests, ephemeral daemons and as the
//     semantic reference the conformance suite measures the durable
//     backends against.
//
// Multi-home tenancy composes on top of this seam rather than inside
// any backend: Namespace(parent, "t/<home>/") wraps an Adapter in a
// Namespaced view that key-prefix-routes one tenant's keys through a
// shared DB or MemDB.
// The faultfs.FS seam sits underneath the durable implementations, so
// crash-consistency testing composes with any Adapter built on it.
type Adapter interface {
	// Get returns a copy of the value stored at key.
	Get(key string) ([]byte, bool)
	// Put durably stores value at key. The empty key is invalid.
	Put(key string, value []byte) error
	// Keys returns all keys with the given prefix, sorted.
	Keys(prefix string) []string
	// PutJSON marshals v and stores it at key.
	PutJSON(key string, v any) error
	// GetJSON unmarshals the value at key into v, reporting whether
	// the key existed.
	GetJSON(key string, v any) (bool, error)
	// Probe verifies the write path end to end without touching any
	// key; the daemon's degraded-mode logic is built on it.
	Probe() error
	// Close flushes and closes the backend. Further writes return
	// ErrClosed.
	Close() error
}

// Compile-time conformance of the shipped backends.
var (
	_ Adapter = (*DB)(nil)
	_ Adapter = (*MemDB)(nil)
)

// putJSON is the shared PutJSON implementation behind every backend.
func putJSON(a Adapter, key string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: marshal %s: %w", key, err)
	}
	return a.Put(key, b)
}

// getJSON is the shared GetJSON implementation behind every backend.
func getJSON(a Adapter, key string, v any) (bool, error) {
	b, ok := a.Get(key)
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(b, v); err != nil {
		return true, fmt.Errorf("store: unmarshal %s: %w", key, err)
	}
	return true, nil
}
