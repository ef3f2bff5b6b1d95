package firewall

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/simclock"
)

func TestBlockUnblock(t *testing.T) {
	f := New(nil)
	addr := "192.168.0.5"
	if f.Blocked(addr) {
		t.Error("fresh firewall blocks")
	}
	if d := f.Check(addr); d != Allow {
		t.Errorf("Check = %v, want ACCEPT", d)
	}
	f.Block(addr, "rule flat/night-heat dropped")
	if !f.Blocked(addr) {
		t.Error("Block had no effect")
	}
	if d := f.Check(addr); d != Drop {
		t.Errorf("Check = %v, want DROP", d)
	}
	f.Unblock(addr)
	if d := f.Check(addr); d != Allow {
		t.Errorf("after Unblock Check = %v", d)
	}
	f.Unblock(addr) // no-op
}

func TestReplace(t *testing.T) {
	f := New(nil)
	f.Block("10.0.0.1", "stale")
	f.Block("10.0.0.2", "old")
	f.Replace([]BlockRule{{Addr: "10.0.0.2", Reason: "dropped", Trace: "tr-1"}})
	if f.Blocked("10.0.0.1") {
		t.Error("Replace kept 10.0.0.1, which the new set does not block")
	}
	if !f.Blocked("10.0.0.2") {
		t.Error("Replace did not install 10.0.0.2")
	}
	f.Check("10.0.0.2")
	if a := f.Audit(); a[len(a)-1].Reason != "dropped" || a[len(a)-1].Trace != "tr-1" {
		t.Errorf("replaced rule carries %+v, want the new reason and trace", a[len(a)-1])
	}
	f.Replace(nil)
	if rules := f.Rules(); len(rules) != 0 {
		t.Errorf("Replace(nil) left %v", rules)
	}
}

func TestAuditLog(t *testing.T) {
	clock := simclock.NewSimClock(time.Date(2020, 6, 1, 12, 0, 0, 0, time.UTC))
	f := New(clock)
	f.Block("10.0.0.1", "EP drop")
	f.Check("10.0.0.1")
	clock.Advance(time.Hour)
	f.Check("10.0.0.2")

	audit := f.Audit()
	if len(audit) != 2 {
		t.Fatalf("audit has %d entries", len(audit))
	}
	if audit[0].Decision != Drop || audit[0].Reason != "EP drop" {
		t.Errorf("entry 0 = %+v", audit[0])
	}
	if audit[1].Decision != Allow || audit[1].Reason != "" {
		t.Errorf("entry 1 = %+v", audit[1])
	}
	if !audit[1].Time.Equal(audit[0].Time.Add(time.Hour)) {
		t.Errorf("timestamps: %v then %v", audit[0].Time, audit[1].Time)
	}
	allowed, dropped := f.Counters()
	if allowed != 1 || dropped != 1 {
		t.Errorf("counters = %d, %d", allowed, dropped)
	}
}

func TestAuditBounded(t *testing.T) {
	f := New(nil)
	for i := 0; i < 10000; i++ {
		f.Check("10.0.0.1")
	}
	if n := len(f.Audit()); n > 4096 {
		t.Errorf("audit grew to %d entries", n)
	}
	allowed, _ := f.Counters()
	if allowed != 10000 {
		t.Errorf("counters lost track: %d", allowed)
	}
}

func TestRulesIptablesSyntax(t *testing.T) {
	f := New(nil)
	f.Block("192.168.0.9", "x")
	f.Block("192.168.0.5", "y")
	rules := f.Rules()
	if len(rules) != 2 {
		t.Fatalf("rules = %v", rules)
	}
	if rules[0] != "-A OUTPUT -s 192.168.0.5 -j DROP" {
		t.Errorf("rule 0 = %q", rules[0])
	}
	if !strings.Contains(rules[1], "192.168.0.9") {
		t.Errorf("rule 1 = %q", rules[1])
	}
}

func TestReset(t *testing.T) {
	f := New(nil)
	f.Block("a", "r")
	f.Check("a")
	f.Reset()
	if f.Blocked("a") || len(f.Audit()) != 0 {
		t.Error("Reset incomplete")
	}
	allowed, dropped := f.Counters()
	if allowed != 0 || dropped != 0 {
		t.Error("counters not reset")
	}
}

func TestConcurrentChecks(t *testing.T) {
	f := New(nil)
	f.Block("blocked", "r")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				f.Check("blocked")
				f.Check("open")
				if i == 0 && j%100 == 0 {
					f.Block("other", "x")
					f.Unblock("other")
				}
			}
		}(i)
	}
	wg.Wait()
	allowed, dropped := f.Counters()
	if allowed != 4000 || dropped != 4000 {
		t.Errorf("counters = %d allowed, %d dropped; want 4000 each", allowed, dropped)
	}
}

func TestDecisionString(t *testing.T) {
	if Allow.String() != "ACCEPT" || Drop.String() != "DROP" {
		t.Error("decision names wrong")
	}
}
