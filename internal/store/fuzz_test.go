package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALRecovery writes arbitrary bytes as a WAL file and opens the
// store: recovery must never panic, and whatever state it recovers must
// accept new writes and survive a clean restart.
func FuzzWALRecovery(f *testing.F) {
	// Seed with a genuine WAL prefix.
	dir, err := os.MkdirTemp("", "fuzzseed")
	if err != nil {
		f.Fatal(err)
	}
	db, err := Open(Options{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	db.Put("k1", []byte("v1"))  //nolint:errcheck
	db.Put("k2", []byte("v2"))  //nolint:errcheck
	db.Probe()                  //nolint:errcheck
	db.Put("k1", []byte("v1b")) //nolint:errcheck
	db.wal.Close()
	walBytes, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		f.Fatal(err)
	}
	os.RemoveAll(dir) //nolint:errcheck
	f.Add(walBytes)
	f.Add(walBytes[:len(walBytes)/2])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(Options{Dir: dir})
		if err != nil {
			// Recovery may reject the file, but must do so cleanly.
			return
		}
		if err := db.Put("fresh", []byte("x")); err != nil {
			t.Fatalf("recovered store rejects writes: %v", err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		db2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer db2.Close()
		if _, ok := db2.Get("fresh"); !ok {
			t.Fatal("write after recovery lost")
		}
	})
}
