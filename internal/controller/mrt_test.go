package controller

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/imcf/imcf/internal/rules"
	"github.com/imcf/imcf/internal/store"
	"github.com/imcf/imcf/internal/stream"
)

// failingStore is an in-memory store whose PutJSON fails once armed,
// standing in for a full or failing disk.
type failingStore struct {
	*store.MemDB
	fail atomic.Bool
}

var errDiskFull = errors.New("disk full")

func (s *failingStore) PutJSON(key string, v any) error {
	if s.fail.Load() {
		return errDiskFull
	}
	return s.MemDB.PutJSON(key, v)
}

// mrtViews returns the controller's table as three encodings: live
// memory, the stream hub's mrt component and the persisted copy.
func mrtViews(t *testing.T, c *Controller, hub *stream.Hub, db store.Adapter) (mem, streamed, persisted []byte) {
	t.Helper()
	mem, err := json.Marshal(c.MRT())
	if err != nil {
		t.Fatal(err)
	}
	var stored rules.MRT
	if ok, err := db.GetJSON(mrtStoreKey, &stored); !ok || err != nil {
		t.Fatalf("persisted MRT: ok=%v err=%v", ok, err)
	}
	if persisted, err = json.Marshal(stored); err != nil {
		t.Fatal(err)
	}
	return mem, hub.Snapshot().State[string(stream.KindMRT)], persisted
}

// withoutRule returns table minus its i-th rule.
func withoutRule(table rules.MRT, i int) rules.MRT {
	out := rules.MRT{Rules: append([]rules.MetaRule(nil), table.Rules[:i]...)}
	out.Rules = append(out.Rules, table.Rules[i+1:]...)
	return out
}

// TestSetMRTPersistFailureKeepsOldTable: a table that fails to persist
// must never go live or onto the stream — the caller gets a 500 and a
// restart would revert it, so memory, stream and store all keep the
// old table.
func TestSetMRTPersistFailureKeepsOldTable(t *testing.T) {
	db := &failingStore{MemDB: store.OpenMem()}
	hub := stream.NewHub("mrt-test", 0)
	c := newController(t, func(cfg *Config) {
		cfg.Store = db
		cfg.Stream = hub
	})
	oldMem, _, _ := mrtViews(t, c, hub, db)
	seq := hub.Seq()

	db.fail.Store(true)
	err := c.SetMRT(withoutRule(c.MRT(), 0))
	var pe *PersistError
	if !errors.As(err, &pe) || !errors.Is(err, errDiskFull) {
		t.Fatalf("SetMRT on a failing store = %v, want a PersistError wrapping %v", err, errDiskFull)
	}
	mem, streamed, persisted := mrtViews(t, c, hub, db)
	if !bytes.Equal(mem, oldMem) {
		t.Error("MRT() serves the table that failed to persist")
	}
	if !bytes.Equal(streamed, oldMem) {
		t.Error("stream carries the table that failed to persist")
	}
	if !bytes.Equal(persisted, oldMem) {
		t.Error("store does not hold the old table")
	}
	if got := hub.Seq(); got != seq {
		t.Errorf("failed SetMRT published: stream seq %d → %d", seq, got)
	}
}

// TestConcurrentSetMRTAgree races distinct MRT writes (run under
// -race): whichever write lands last, memory, stream and store must
// all hold that same table.
func TestConcurrentSetMRTAgree(t *testing.T) {
	db := store.OpenMem()
	hub := stream.NewHub("mrt-race", 0)
	c := newController(t, func(cfg *Config) {
		cfg.Store = db
		cfg.Stream = hub
	})
	base := c.MRT()
	writers := min(8, len(base.Rules))
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := c.SetMRT(withoutRule(base, i)); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		mem, streamed, persisted := mrtViews(t, c, hub, db)
		if !bytes.Equal(mem, streamed) || !bytes.Equal(mem, persisted) {
			t.Fatalf("round %d: memory, stream and store disagree (stream matches: %v, store matches: %v)",
				round, bytes.Equal(mem, streamed), bytes.Equal(mem, persisted))
		}
	}
}
