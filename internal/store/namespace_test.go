package store

import (
	"reflect"
	"testing"
)

// TestNamespaceEmptyPrefixIsParent pins that an empty prefix is the
// identity: no wrapper, no indirection.
func TestNamespaceEmptyPrefixIsParent(t *testing.T) {
	m := OpenMem()
	defer m.Close() //nolint:errcheck
	if got := Namespace(m, ""); got != Adapter(m) {
		t.Fatalf("Namespace(parent, \"\") = %T, want the parent itself", got)
	}
}

// TestNamespaceIsolation runs two tenants over every shared-capable
// backend and checks neither can see or disturb the other's keys —
// including the prefix-of-a-prefix case ("t/a/" vs "t/ab/").
func TestNamespaceIsolation(t *testing.T) {
	for _, be := range backends(t) {
		t.Run(be.name, func(t *testing.T) {
			parent := be.open(t)
			defer parent.Close() //nolint:errcheck

			a := Namespace(parent, "t/a/")
			ab := Namespace(parent, "t/ab/")

			if err := a.Put("imcf/mrt", []byte("tenant-a")); err != nil {
				t.Fatal(err)
			}
			if err := ab.Put("imcf/mrt", []byte("tenant-ab")); err != nil {
				t.Fatal(err)
			}

			if v, _ := a.Get("imcf/mrt"); string(v) != "tenant-a" {
				t.Errorf("tenant a sees %q", v)
			}
			if v, _ := ab.Get("imcf/mrt"); string(v) != "tenant-ab" {
				t.Errorf("tenant ab sees %q", v)
			}
			if got := a.Keys(""); !reflect.DeepEqual(got, []string{"imcf/mrt"}) {
				t.Errorf("tenant a Keys = %v", got)
			}
			if na, nab := len(a.Keys("")), len(ab.Keys("")); na != 1 || nab != 1 {
				t.Errorf("key counts = %d, %d; want 1, 1", na, nab)
			}

			// The parent sees both, fully routed.
			if got := parent.Keys("t/"); !reflect.DeepEqual(got, []string{"t/a/imcf/mrt", "t/ab/imcf/mrt"}) {
				t.Errorf("parent Keys = %v", got)
			}

			// Overwriting in one namespace leaves the other intact.
			if err := a.Put("imcf/mrt", []byte("tenant-a-v2")); err != nil {
				t.Fatal(err)
			}
			if v, _ := a.Get("imcf/mrt"); string(v) != "tenant-a-v2" {
				t.Errorf("tenant a overwrite reads %q", v)
			}
			if v, _ := ab.Get("imcf/mrt"); string(v) != "tenant-ab" {
				t.Errorf("tenant ab sees %q after tenant a's overwrite", v)
			}
		})
	}
}

// TestNamespaceKeysStripPrefix pins that a tenant lists the key names
// it wrote, sorted, never the physical routing prefix.
func TestNamespaceKeysStripPrefix(t *testing.T) {
	m := OpenMem()
	defer m.Close() //nolint:errcheck
	n := Namespace(m, "t/h1/")
	for _, k := range []string{"mrt/2", "mrt/1", "ecp/flat"} {
		if err := n.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := n.Keys("mrt/"), []string{"mrt/1", "mrt/2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Keys(mrt/) = %v, want %v", got, want)
	}
	if got, want := n.Keys(""), []string{"ecp/flat", "mrt/1", "mrt/2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Keys(\"\") = %v, want %v", got, want)
	}
}

func TestNamespaceEmptyKeyRejected(t *testing.T) {
	m := OpenMem()
	defer m.Close() //nolint:errcheck
	n := Namespace(m, "t/h1/")
	if err := n.Put("", []byte("x")); err == nil {
		t.Error("empty key accepted: would write the bare prefix")
	}
	if n := len(m.Keys("")); n != 0 {
		t.Errorf("parent has %d keys after rejected Put", n)
	}
}

func TestNamespaceJSON(t *testing.T) {
	type mrt struct {
		Rules []string `json:"rules"`
	}
	m := OpenMem()
	defer m.Close() //nolint:errcheck
	n := Namespace(m, "t/h1/")

	in := mrt{Rules: []string{"hvac<=24"}}
	if err := n.PutJSON("imcf/mrt", in); err != nil {
		t.Fatal(err)
	}
	var out mrt
	if ok, err := n.GetJSON("imcf/mrt", &out); !ok || err != nil {
		t.Fatalf("GetJSON = %v, %v", ok, err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round-trip = %+v, want %+v", out, in)
	}
	if _, ok := m.Get("t/h1/imcf/mrt"); !ok {
		t.Error("JSON value not routed through the prefix")
	}
}

// TestNamespaceCloseIsNoOp pins the ownership contract: closing a view
// must not close the shared parent.
func TestNamespaceCloseIsNoOp(t *testing.T) {
	m := OpenMem()
	defer m.Close() //nolint:errcheck
	n := Namespace(m, "t/h1/")
	if err := n.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	// The parent — and other views of it — keep working.
	if err := m.Put("k2", []byte("v")); err != nil {
		t.Errorf("parent closed by view Close: %v", err)
	}
	if err := Namespace(m, "t/h2/").Put("k", []byte("v")); err != nil {
		t.Errorf("sibling view broken by Close: %v", err)
	}
}

// TestNamespaceProbeAndCompact: a view's Probe delegates to the shared
// parent, and its keys survive the parent's compaction.
func TestNamespaceProbeAndCompact(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	n := Namespace(db, "t/h1/")
	if err := n.Probe(); err != nil {
		t.Errorf("Probe: %v", err)
	}
	if err := n.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Errorf("Compact: %v", err)
	}
	if _, ok := n.Get("k"); !ok {
		t.Error("key lost across compaction")
	}
}

// TestNamespaceDurability reopens a WAL backend and checks namespaced
// writes recover under their tenant prefixes.
func TestNamespaceDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range []string{"h1", "h2"} {
		if err := Namespace(db, "t/"+tn+"/").Put("imcf/mrt", []byte(tn)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close() //nolint:errcheck
	for _, tn := range []string{"h1", "h2"} {
		if v, ok := Namespace(db2, "t/"+tn+"/").Get("imcf/mrt"); !ok || string(v) != tn {
			t.Errorf("tenant %s recovered %q, %v", tn, v, ok)
		}
	}
}
