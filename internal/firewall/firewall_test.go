package firewall

import (
	"strings"
	"sync"
	"testing"
)

func TestBlockUnblock(t *testing.T) {
	f := New()
	addr := "192.168.0.5"
	if f.Blocked(addr) {
		t.Error("fresh firewall blocks")
	}
	if d, _ := f.Check(addr); d != Allow {
		t.Errorf("Check = %v, want ACCEPT", d)
	}
	f.Block(addr, "rule flat/night-heat dropped")
	if !f.Blocked(addr) {
		t.Error("Block had no effect")
	}
	if d, _ := f.Check(addr); d != Drop {
		t.Errorf("Check = %v, want DROP", d)
	}
	f.Unblock(addr)
	if d, _ := f.Check(addr); d != Allow {
		t.Errorf("after Unblock Check = %v", d)
	}
	f.Unblock(addr) // no-op
}

func TestReplace(t *testing.T) {
	f := New()
	f.Block("10.0.0.1", "stale")
	f.Block("10.0.0.2", "old")
	f.Replace([]BlockRule{{Addr: "10.0.0.2", Reason: "dropped", Trace: "tr-1"}})
	if f.Blocked("10.0.0.1") {
		t.Error("Replace kept 10.0.0.1, which the new set does not block")
	}
	if !f.Blocked("10.0.0.2") {
		t.Error("Replace did not install 10.0.0.2")
	}
	if _, block := f.Check("10.0.0.2"); block.Reason != "dropped" || block.Trace != "tr-1" {
		t.Errorf("replaced rule carries %+v, want the new reason and trace", block)
	}
	f.Replace(nil)
	if rules := f.Rules(); len(rules) != 0 {
		t.Errorf("Replace(nil) left %v", rules)
	}
}

func TestCheckReturnsBlock(t *testing.T) {
	f := New()
	f.BlockTraced("10.0.0.1", "EP drop", "tr-7")
	d, block := f.Check("10.0.0.1")
	if d != Drop || block != (BlockRule{Addr: "10.0.0.1", Reason: "EP drop", Trace: "tr-7"}) {
		t.Errorf("blocked check = %v, %+v", d, block)
	}
	d, block = f.Check("10.0.0.2")
	if d != Allow || block != (BlockRule{}) {
		t.Errorf("allowed check = %v, %+v", d, block)
	}
	allowed, dropped := f.Counters()
	if allowed != 1 || dropped != 1 {
		t.Errorf("counters = %d, %d", allowed, dropped)
	}
}

func TestRulesIptablesSyntax(t *testing.T) {
	f := New()
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
	f := New()
	f.Block("a", "r")
	f.Check("a")
	f.Reset()
	if f.Blocked("a") {
		t.Error("Reset kept the block")
	}
	allowed, dropped := f.Counters()
	if allowed != 0 || dropped != 0 {
		t.Error("counters not reset")
	}
}

func TestConcurrentChecks(t *testing.T) {
	f := New()
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
