package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/imcf/imcf/internal/faultfs"
)

// Version-1 stores (pre-generation format) have a 16-byte snapshot
// header and a headerless WAL. An upgraded binary must open them —
// applying the WAL on top of the snapshot — and migrate them to the
// current format at the next compaction, not refuse to start.

// v1Snapshot encodes data in the legacy snapshot layout: magic,
// version 1, pad, count, records, CRC tail.
func v1Snapshot(data map[string]string) []byte {
	b := append([]byte{}, snapMagic[:]...)
	b = append(b, snapVersionLegacy, 0, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(data)))
	keys := make([]string, 0, len(data))
	for k := range data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = binary.AppendUvarint(b, uint64(len(k)))
		b = append(b, k...)
		b = binary.AppendUvarint(b, uint64(len(data[k])))
		b = append(b, data[k]...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// v1WALRecord frames one legacy WAL record (the record layout is
// unchanged; only the log header is new).
func v1WALRecord(op byte, key, val string) []byte {
	payload := []byte{op}
	payload = binary.AppendUvarint(payload, uint64(len(key)))
	payload = append(payload, key...)
	payload = append(payload, val...)
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	return append(rec, payload...)
}

func writeMemFile(t *testing.T, fs faultfs.FS, path string, b []byte) {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenV1Store(t *testing.T) {
	mem := faultfs.NewMemFS()
	if err := mem.MkdirAll("/db", 0o755); err != nil {
		t.Fatal(err)
	}
	writeMemFile(t, mem, "/db/"+snapName, v1Snapshot(map[string]string{
		"mrt/rule1": "old",
		"mrt/rule2": "keep",
	}))
	var wal []byte
	wal = append(wal, v1WALRecord(opPut, "mrt/rule1", "new")...)
	wal = append(wal, v1WALRecord(opPut, "mrt/rule3", "added")...)
	writeMemFile(t, mem, "/db/"+walName, wal)
	if err := mem.SyncDir("/db"); err != nil {
		t.Fatal(err)
	}

	db, err := Open(Options{Dir: "/db", FS: mem})
	if err != nil {
		t.Fatalf("open v1 store: %v", err)
	}
	want := map[string]string{"mrt/rule1": "new", "mrt/rule2": "keep", "mrt/rule3": "added"}
	assertState := func(db *DB, stage string) {
		t.Helper()
		for k, v := range want {
			if got, ok := db.Get(k); !ok || string(got) != v {
				t.Fatalf("%s: %s = %q,%v, want %q", stage, k, got, ok, v)
			}
		}
		if n := len(db.Keys("")); n != len(want) {
			t.Fatalf("%s: %d keys, want %d", stage, n, len(want))
		}
	}
	assertState(db, "after open")

	// New writes append to the still-headerless log; a crash before any
	// compaction must replay the mixed old+new records.
	if err := db.Put("mrt/rule4", []byte("fresh")); err != nil {
		t.Fatalf("put on v1 store: %v", err)
	}
	want["mrt/rule4"] = "fresh"
	mem.Crash()

	db2, err := Open(Options{Dir: "/db", FS: mem})
	if err != nil {
		t.Fatalf("reopen v1 store after crash: %v", err)
	}
	assertState(db2, "after crash reopen")

	// Compaction migrates both files to the current format.
	if err := db2.Compact(); err != nil {
		t.Fatalf("migrating compaction: %v", err)
	}
	snap, err := mem.ReadFile("/db/" + snapName)
	if err != nil {
		t.Fatal(err)
	}
	if snap[4] != snapVersion {
		t.Fatalf("snapshot version after compaction = %d, want %d", snap[4], snapVersion)
	}
	if gen := binary.LittleEndian.Uint64(snap[8:16]); gen == 0 {
		t.Fatal("migrated snapshot has generation 0")
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	db3, err := Open(Options{Dir: "/db", FS: mem})
	if err != nil {
		t.Fatalf("reopen migrated store: %v", err)
	}
	defer db3.Close() //nolint:errcheck
	assertState(db3, "after migration")
}

// TestOpenV1StoreTornWALTail: a v1 log with a torn tail replays its
// good prefix and truncates the rest, same as the current format.
func TestOpenV1StoreTornWALTail(t *testing.T) {
	mem := faultfs.NewMemFS()
	if err := mem.MkdirAll("/db", 0o755); err != nil {
		t.Fatal(err)
	}
	writeMemFile(t, mem, "/db/"+snapName, v1Snapshot(map[string]string{"k": "v"}))
	wal := v1WALRecord(opPut, "k2", "v2")
	torn := v1WALRecord(opPut, "k3", "v3")
	wal = append(wal, torn[:len(torn)-3]...)
	writeMemFile(t, mem, "/db/"+walName, wal)
	if err := mem.SyncDir("/db"); err != nil {
		t.Fatal(err)
	}

	db, err := Open(Options{Dir: "/db", FS: mem})
	if err != nil {
		t.Fatalf("open v1 store with torn tail: %v", err)
	}
	defer db.Close() //nolint:errcheck
	if got, ok := db.Get("k2"); !ok || string(got) != "v2" {
		t.Fatalf("good prefix record lost: k2 = %q,%v", got, ok)
	}
	if _, ok := db.Get("k3"); ok {
		t.Fatal("torn record applied")
	}
	if err := db.Put("k4", []byte("v4")); err != nil {
		t.Fatalf("append after torn-tail truncation: %v", err)
	}
}

// TestOpenCommittedV2Store pins the on-disk format against files
// written by an earlier build (testdata/v2): three Puts (one through
// each of the default and two tenant keyspaces), a Probe and a Close —
// a v2 snapshot at generation 1 plus a generation-stamped WAL — then
// one more Put, overwriting imcf/mrt, left in the WAL by a crash. Any
// change to the snapshot, WAL header or record encoding fails here.
func TestOpenCommittedV2Store(t *testing.T) {
	want := map[string]string{
		"imcf/mrt":      `{"rules":["night heat"],"version":2}`,
		"t/h1/imcf/mrt": `{"rules":["flat cool"],"version":1}`,
		"t/h2/imcf/mrt": `{"version":1}`,
	}
	dir := t.TempDir()
	for name, magic := range map[string]string{snapName: "IMSS", walName: "IMWL"} {
		b, err := os.ReadFile(filepath.Join("testdata", "v2", name))
		if err != nil {
			t.Fatal(err)
		}
		if string(b[:4]) != magic || binary.LittleEndian.Uint64(b[8:16]) != 1 {
			t.Fatalf("fixture %s is not a generation-1 file of the current format", name)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	assertState := func(db *DB, stage string) {
		t.Helper()
		if got := db.Keys(""); len(got) != len(want) {
			t.Fatalf("%s: keys %v, want %d", stage, got, len(want))
		}
		for k, v := range want {
			if got, ok := db.Get(k); !ok || string(got) != v {
				t.Fatalf("%s: %s = %q,%v, want %q", stage, k, got, ok, v)
			}
		}
		var mrt struct{ Version int }
		if ok, err := Namespace(db, "t/h1/").GetJSON("imcf/mrt", &mrt); !ok || err != nil || mrt.Version != 1 {
			t.Fatalf("%s: tenant h1 MRT = %+v,%v,%v", stage, mrt, ok, err)
		}
	}

	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("open committed store: %v", err)
	}
	if db.walRecs != 1 {
		t.Fatalf("replayed %d WAL records, want the 1 trailing Put", db.walRecs)
	}
	assertState(db, "after open")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Close compacted the replayed Put into a new snapshot.
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen compacted store: %v", err)
	}
	defer db2.Close() //nolint:errcheck
	assertState(db2, "after compaction")
}
