// Package daemon hosts the tenantisolation and goleak fixtures; its
// import path suffix puts it on both rules' scopes.
package daemon

import (
	"errors"
	"path/filepath"

	"fixtures.test/internal/persistence"
	"fixtures.test/internal/store"
)

// ParseTenantID is the fixture sanitizer; the rule recognizes it by
// name and treats values it has vetted as clean key components.
func ParseTenantID(id string) error {
	if id == "" {
		return errors.New("daemon: empty tenant ID")
	}
	return nil
}

// tenantStorePrefix is the fixture key mediator.
func tenantStorePrefix(id string) string { return "t/" + id + "/" }

// tenantDir is the fixture path mediator.
func tenantDir(base, id string) string { return filepath.Join(base, "tenants", id) }

// RawKey passes an ad-hoc concatenated key to an Adapter method — the
// key-sink positive.
func RawKey(ad store.Adapter, id string) string {
	return ad.Get("t/" + id + "/mrt")
}

// RawNamespace builds the Namespace prefix by hand — the prefix-sink
// positive.
func RawNamespace(ad store.Adapter, id string) store.Adapter {
	prefix := "t/" + id + "/"
	return store.Namespace(ad, prefix)
}

// RawDir assembles the per-tenant directory ad hoc — positives for
// the persistence path sinks and the store Dir field.
func RawDir(base, id string) store.Options {
	dir := filepath.Join(base, "tenants", id)
	persistence.Open(dir)
	persistence.OpenFS(dir, nil)
	return store.Options{Dir: dir}
}

// Mediated is the negative fixture: every key and path flows through
// the audited helpers.
func Mediated(ad store.Adapter, base, id string) error {
	if err := ParseTenantID(id); err != nil {
		return err
	}
	view := store.Namespace(ad, tenantStorePrefix(id))
	view.Put("mrt", "rules")
	dir := tenantDir(base, id)
	persistence.Open(dir)
	opts := store.Options{Dir: dir}
	_ = opts
	return nil
}

// Validated uses the raw ID directly, legal because ParseTenantID has
// vetted it on every path reaching the sink.
func Validated(ad store.Adapter, id string) string {
	if err := ParseTenantID(id); err != nil {
		return ""
	}
	return ad.Get(id)
}

// Unvalidated uses the raw parameter without any vetting — the
// must-clean analysis keeps it tainted.
func Unvalidated(ad store.Adapter, id string) string {
	return ad.Get(id)
}
