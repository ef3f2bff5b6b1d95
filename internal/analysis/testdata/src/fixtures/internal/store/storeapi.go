// Adapter shapes backing the tenantisolation fixtures: the rule
// matches key sinks by receiver package suffix (internal/store) and
// option types by name, so the fixture daemon package needs these to
// exist. Methods return no error so err-drop stays quiet at call
// sites.
package store

// Adapter is the fixture key-value surface.
type Adapter struct{}

// Get reads one key.
func (Adapter) Get(key string) string { return key }

// Put writes one key.
func (Adapter) Put(key, value string) {}

// Delete removes one key.
func (Adapter) Delete(key string) {}

// Keys lists keys under a prefix.
func (Adapter) Keys(prefix string) []string { return nil }

// Namespace scopes an adapter to a key prefix.
func Namespace(parent Adapter, prefix string) Adapter { return parent }

// Options configures a single-directory store.
type Options struct {
	Dir string
}
