package store

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// backends enumerates every shipped Adapter implementation for the
// conformance suite. Each test below runs against all of them, pinning
// the shared semantics a caller may rely on regardless of backend.
func backends(t *testing.T) []struct {
	name string
	open func(t *testing.T) Adapter
} {
	return []struct {
		name string
		open func(t *testing.T) Adapter
	}{
		{"wal", func(t *testing.T) Adapter {
			db, err := Open(Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			return db
		}},
		{"mem", func(t *testing.T) Adapter {
			return OpenMem()
		}},
	}
}

func TestAdapterPutGet(t *testing.T) {
	for _, be := range backends(t) {
		t.Run(be.name, func(t *testing.T) {
			a := be.open(t)
			defer a.Close() //nolint:errcheck

			if _, ok := a.Get("missing"); ok {
				t.Error("Get on empty store found a key")
			}
			if err := a.Put("mrt/1", []byte("night heat")); err != nil {
				t.Fatal(err)
			}
			if v, ok := a.Get("mrt/1"); !ok || string(v) != "night heat" {
				t.Errorf("Get = %q, %v", v, ok)
			}
			if err := a.Put("mrt/1", []byte("updated")); err != nil {
				t.Fatal(err)
			}
			if v, _ := a.Get("mrt/1"); string(v) != "updated" {
				t.Errorf("overwrite failed: %q", v)
			}
			if err := a.Put("", []byte("x")); err == nil {
				t.Error("empty key accepted")
			}
		})
	}
}

func TestAdapterValueIsolation(t *testing.T) {
	for _, be := range backends(t) {
		t.Run(be.name, func(t *testing.T) {
			a := be.open(t)
			defer a.Close() //nolint:errcheck

			in := []byte("abc")
			if err := a.Put("k", in); err != nil {
				t.Fatal(err)
			}
			in[0] = 'Z' // the store must have copied on write
			v, _ := a.Get("k")
			v[0] = 'X' // and must copy on read
			if again, _ := a.Get("k"); string(again) != "abc" {
				t.Errorf("value not isolated: %q", again)
			}
		})
	}
}

func TestAdapterKeysAndLen(t *testing.T) {
	for _, be := range backends(t) {
		t.Run(be.name, func(t *testing.T) {
			a := be.open(t)
			defer a.Close() //nolint:errcheck

			for _, k := range []string{"mrt/2", "mrt/1", "ecp/flat", "mrt/3"} {
				if err := a.Put(k, []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := a.Keys("mrt/"), []string{"mrt/1", "mrt/2", "mrt/3"}; !reflect.DeepEqual(got, want) {
				t.Errorf("Keys(mrt/) = %v, want %v", got, want)
			}
			if n := len(a.Keys("")); n != 4 {
				t.Errorf("Keys(\"\") = %d keys, want 4", n)
			}
		})
	}
}

func TestAdapterJSON(t *testing.T) {
	type mrt struct {
		Rules []string `json:"rules"`
	}
	for _, be := range backends(t) {
		t.Run(be.name, func(t *testing.T) {
			a := be.open(t)
			defer a.Close() //nolint:errcheck

			in := mrt{Rules: []string{"hvac<=24", "light-off"}}
			if err := a.PutJSON("imcf/mrt", in); err != nil {
				t.Fatal(err)
			}
			var out mrt
			ok, err := a.GetJSON("imcf/mrt", &out)
			if err != nil || !ok {
				t.Fatalf("GetJSON = %v, %v", ok, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Errorf("round-trip = %+v, want %+v", out, in)
			}
			if ok, err := a.GetJSON("missing", &out); ok || err != nil {
				t.Errorf("GetJSON(missing) = %v, %v", ok, err)
			}
			if err := a.PutJSON("bad", func() {}); err == nil {
				t.Error("unmarshalable value accepted")
			}
			if err := a.Put("garbage", []byte("{")); err != nil {
				t.Fatal(err)
			}
			if ok, err := a.GetJSON("garbage", &out); !ok || err == nil {
				t.Errorf("GetJSON(garbage) = %v, %v; want found with error", ok, err)
			}
		})
	}
}

// TestAdapterCompactAndProbe probes every backend and, on the one with
// a log, compacts it: neither may change the keyspace.
func TestAdapterCompactAndProbe(t *testing.T) {
	for _, be := range backends(t) {
		t.Run(be.name, func(t *testing.T) {
			a := be.open(t)
			defer a.Close() //nolint:errcheck

			for i := 0; i < 20; i++ {
				if err := a.Put(fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Probe(); err != nil {
				t.Errorf("Probe: %v", err)
			}
			if db, ok := a.(*DB); ok {
				if err := db.Compact(); err != nil {
					t.Errorf("Compact: %v", err)
				}
			}
			if n := len(a.Keys("")); n != 20 {
				t.Errorf("%d keys after probe and compaction, want 20", n)
			}
		})
	}
}

func TestAdapterClosed(t *testing.T) {
	for _, be := range backends(t) {
		t.Run(be.name, func(t *testing.T) {
			a := be.open(t)
			if err := a.Put("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
			for name, err := range map[string]error{
				"Put":     a.Put("k", []byte("v")),
				"PutJSON": a.PutJSON("k", "v"),
				"Probe":   a.Probe(),
			} {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("%s after Close = %v, want ErrClosed", name, err)
				}
			}
		})
	}
}

// TestAdapterProbeKeyInvisible pins that Probe never surfaces a key on
// any backend (the durable ones write a WAL record, the in-memory one
// writes nothing).
func TestAdapterProbeKeyInvisible(t *testing.T) {
	for _, be := range backends(t) {
		t.Run(be.name, func(t *testing.T) {
			a := be.open(t)
			defer a.Close() //nolint:errcheck
			if err := a.Probe(); err != nil {
				t.Fatal(err)
			}
			if n := len(a.Keys("")); n != 0 {
				t.Errorf("Probe leaked %d keys: %v", n, a.Keys(""))
			}
			for _, k := range a.Keys("") {
				if strings.Contains(k, "probe") {
					t.Errorf("probe key visible: %s", k)
				}
			}
		})
	}
}
