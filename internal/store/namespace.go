package store

import (
	"errors"
	"strings"
)

// Namespaced is the tenant seam of the storage layer: an Adapter view
// that routes every key through a fixed prefix, so N tenants can share
// one physical backend (the WAL DB's single group-commit log, or a
// MemDB) while each sees only its own keyspace. The daemon derives the
// prefix from the validated tenant ID ("t/<home>/"); because tenant IDs
// cannot contain '/', two tenants' prefixes can never alias each
// other's keys.
//
// A Namespaced view inherits the parent's durability: Put commits
// through the parent's log. Close is a no-op — the parent is shared,
// and its lifetime belongs to whoever opened it (the daemon closes the
// physical backend once, after every tenant view is done).
type Namespaced struct {
	parent Adapter
	prefix string
}

// Namespace returns a view of parent routing every key through prefix.
// An empty prefix returns parent itself.
func Namespace(parent Adapter, prefix string) Adapter {
	if prefix == "" {
		return parent
	}
	return &Namespaced{parent: parent, prefix: prefix}
}

// Get returns a copy of the value stored at key within the namespace.
func (n *Namespaced) Get(key string) ([]byte, bool) {
	return n.parent.Get(n.prefix + key)
}

// Put durably stores value at key within the namespace. The empty key
// is invalid — the bare prefix is not a tenant key.
func (n *Namespaced) Put(key string, value []byte) error {
	if key == "" {
		return errors.New("store: empty key")
	}
	return n.parent.Put(n.prefix+key, value)
}

// Keys returns the namespace's keys with the given prefix, sorted, with
// the namespace prefix stripped — a tenant lists the same key names it
// wrote, never the physical routing prefix.
func (n *Namespaced) Keys(prefix string) []string {
	full := n.parent.Keys(n.prefix + prefix)
	out := make([]string, 0, len(full))
	for _, k := range full {
		out = append(out, strings.TrimPrefix(k, n.prefix))
	}
	return out
}

// PutJSON marshals v and stores it at key within the namespace.
func (n *Namespaced) PutJSON(key string, v any) error { return putJSON(n, key, v) }

// GetJSON unmarshals the value at key within the namespace into v,
// reporting whether the key existed.
func (n *Namespaced) GetJSON(key string, v any) (bool, error) { return getJSON(n, key, v) }

// Probe verifies the shared parent's write path end to end — a tenant's
// degraded-mode probe exercises the same log its writes would.
func (n *Namespaced) Probe() error { return n.parent.Probe() }

// Close is a no-op: the parent backend is shared across namespaces and
// closed once by its owner.
func (n *Namespaced) Close() error { return nil }

// Compile-time conformance.
var _ Adapter = (*Namespaced)(nil)
