package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/imcf/imcf/internal/faultfs"
)

func open(t *testing.T, dir string, opts ...func(*Options)) *DB {
	t.Helper()
	o := Options{Dir: dir}
	for _, f := range opts {
		f(&o)
	}
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("Open with empty Dir accepted")
	}
}

func TestPutGet(t *testing.T) {
	db := open(t, t.TempDir())
	defer db.Close()

	if _, ok := db.Get("missing"); ok {
		t.Error("Get on empty store found a key")
	}
	if err := db.Put("mrt/1", []byte("night heat")); err != nil {
		t.Fatal(err)
	}
	v, ok := db.Get("mrt/1")
	if !ok || string(v) != "night heat" {
		t.Errorf("Get = %q, %v", v, ok)
	}
	if err := db.Put("mrt/1", []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if v, _ := db.Get("mrt/1"); string(v) != "updated" {
		t.Errorf("overwrite failed: %q", v)
	}
	if err := db.Put("", []byte("x")); err == nil {
		t.Error("empty key accepted")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	db := open(t, t.TempDir())
	defer db.Close()
	if err := db.Put("k", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	v, _ := db.Get("k")
	v[0] = 'X'
	again, _ := db.Get("k")
	if string(again) != "abc" {
		t.Error("Get exposed internal buffer")
	}
}

func TestKeysPrefix(t *testing.T) {
	db := open(t, t.TempDir())
	defer db.Close()
	for _, k := range []string{"mrt/2", "mrt/1", "ecp/flat", "mrt/3"} {
		if err := db.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	got := db.Keys("mrt/")
	want := []string{"mrt/1", "mrt/2", "mrt/3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Keys(mrt/) = %v, want %v", got, want)
	}
	if n := len(db.Keys("")); n != 4 {
		t.Errorf("Keys(\"\") = %d keys, want 4", n)
	}
}

func TestRestartRecoversFromWAL(t *testing.T) {
	dir := t.TempDir()
	db := open(t, dir)
	for i := 0; i < 50; i++ {
		if err := db.Put(fmt.Sprintf("k%02d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Put("k10", []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: do NOT Close (which would compact); just reopen.
	if err := db.wal.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := open(t, dir)
	defer db2.Close()
	if n := len(db2.Keys("")); n != 50 {
		t.Errorf("recovered %d keys, want 50", n)
	}
	if v, _ := db2.Get("k10"); string(v) != "overwritten" {
		t.Errorf("k10 = %q, want the overwrite", v)
	}
	if v, _ := db2.Get("k42"); !bytes.Equal(v, []byte{42}) {
		t.Errorf("k42 = %v", v)
	}
}

func TestRestartAfterCompact(t *testing.T) {
	dir := t.TempDir()
	db := open(t, dir)
	for i := 0; i < 20; i++ {
		if err := db.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.walRecs != 0 {
		t.Errorf("WAL records after compact = %d", db.walRecs)
	}
	if err := db.Put("post", []byte("compact")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := open(t, dir)
	defer db2.Close()
	if n := len(db2.Keys("")); n != 21 {
		t.Errorf("recovered %d keys, want 21", n)
	}
	if v, _ := db2.Get("post"); string(v) != "compact" {
		t.Errorf("post = %q", v)
	}
}

func TestTornWALTail(t *testing.T) {
	dir := t.TempDir()
	db := open(t, dir)
	for i := 0; i < 10; i++ {
		if err := db.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	db.wal.Close() // crash without compaction

	// Tear the last record in half.
	walPath := filepath.Join(dir, walName)
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	db2 := open(t, dir)
	defer db2.Close()
	if n := len(db2.Keys("")); n != 9 {
		t.Errorf("recovered %d keys, want 9 (torn record dropped)", n)
	}
	// The store must accept new writes and survive another restart.
	if err := db2.Put("fresh", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3 := open(t, dir)
	defer db3.Close()
	if _, ok := db3.Get("fresh"); !ok {
		t.Error("write after torn-tail recovery lost")
	}
}

func TestCorruptWALRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	db := open(t, dir)
	for i := 0; i < 5; i++ {
		if err := db.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	db.wal.Close()

	walPath := filepath.Join(dir, walName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // corrupt final record's payload
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := open(t, dir)
	defer db2.Close()
	if n := len(db2.Keys("")); n != 4 {
		t.Errorf("recovered %d keys, want 4", n)
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	db := open(t, dir)
	if err := db.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, snapName)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-6] ^= 0xFF
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

func TestAutoCompact(t *testing.T) {
	db := open(t, t.TempDir(), func(o *Options) { o.CompactEvery = 10 })
	defer db.Close()
	for i := 0; i < 25; i++ {
		if err := db.Put(fmt.Sprintf("k%d", i%3), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if db.walRecs >= 10 {
		t.Errorf("WAL records = %d, auto-compaction did not run", db.walRecs)
	}
	if n := len(db.Keys("")); n != 3 {
		t.Errorf("%d keys, want 3", n)
	}
}

// TestSyncWrites pins that every Put and Probe fsyncs the WAL before
// it is acknowledged, so a crash right after the ack keeps the write.
func TestSyncWrites(t *testing.T) {
	mem := faultfs.NewMemFS()
	walSyncs := 0
	inj := faultfs.InjectorFunc(func(op faultfs.FaultOp) *faultfs.Fault {
		if op.Op == faultfs.OpSync && strings.HasSuffix(op.Path, walName) {
			walSyncs++
		}
		return nil
	})
	db, err := Open(Options{Dir: "/db", FS: faultfs.NewFaulty(mem, inj)})
	if err != nil {
		t.Fatal(err)
	}
	for i, write := range []func() error{
		func() error { return db.Put("k", []byte("v")) },
		db.Probe,
		func() error { return db.PutJSON("imcf/mrt", []string{"r1"}) },
	} {
		before := walSyncs
		if err := write(); err != nil {
			t.Fatal(err)
		}
		if walSyncs != before+1 {
			t.Fatalf("write %d acknowledged after %d WAL fsyncs, want 1", i, walSyncs-before)
		}
	}
	mem.Crash()

	db2, err := Open(Options{Dir: "/db", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close() //nolint:errcheck
	if v, ok := db2.Get("k"); !ok || string(v) != "v" {
		t.Errorf("acknowledged put lost to a crash: %q, %v", v, ok)
	}
	if _, ok := db2.Get("imcf/mrt"); !ok {
		t.Error("acknowledged PutJSON lost to a crash")
	}
}

func TestClosedOperations(t *testing.T) {
	db := open(t, t.TempDir())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put("k", []byte("v")); err != ErrClosed {
		t.Errorf("Put after close = %v, want ErrClosed", err)
	}
	if err := db.Compact(); err != ErrClosed {
		t.Errorf("Compact after close = %v, want ErrClosed", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("double Close = %v", err)
	}
}

func TestJSONHelpers(t *testing.T) {
	db := open(t, t.TempDir())
	defer db.Close()
	type mrt struct {
		Name  string
		Limit float64
	}
	in := mrt{Name: "Energy Flat", Limit: 11000}
	if err := db.PutJSON("mrt/flat", in); err != nil {
		t.Fatal(err)
	}
	var out mrt
	ok, err := db.GetJSON("mrt/flat", &out)
	if err != nil || !ok || out != in {
		t.Errorf("GetJSON = %+v, %v, %v", out, ok, err)
	}
	ok, err = db.GetJSON("mrt/none", &out)
	if err != nil || ok {
		t.Errorf("GetJSON missing = %v, %v", ok, err)
	}
	if err := db.Put("bad", []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetJSON("bad", &out); err == nil {
		t.Error("GetJSON on invalid JSON succeeded")
	}
	if err := db.PutJSON("ch", make(chan int)); err == nil {
		t.Error("PutJSON of unmarshalable value succeeded")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := open(t, t.TempDir())
	defer db.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("g%d/k%d", g, i)
				if err := db.Put(key, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, ok := db.Get(key); !ok {
					t.Errorf("lost own write %s", key)
					return
				}
				db.Keys(fmt.Sprintf("g%d/", g))
			}
		}(g)
	}
	wg.Wait()
	if n := len(db.Keys("")); n != 800 {
		t.Errorf("%d keys, want 800", n)
	}
}

func TestPropertyStateMatchesModel(t *testing.T) {
	// Random put sequences (overwrites included) applied to both the DB
	// and a plain map, then a restart — final states must agree.
	f := func(ops []struct {
		Key byte
		Val byte
	}) bool {
		dir, err := os.MkdirTemp("", "storeprop")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		db, err := Open(Options{Dir: dir})
		if err != nil {
			return false
		}
		model := map[string][]byte{}
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op.Key%16)
			if db.Put(key, []byte{op.Val}) != nil {
				return false
			}
			model[key] = []byte{op.Val}
		}
		db.wal.Close() // crash-style restart
		db2, err := Open(Options{Dir: dir})
		if err != nil {
			return false
		}
		defer db2.Close()
		if len(db2.Keys("")) != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := db2.Get(k)
			if !ok || !bytes.Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
