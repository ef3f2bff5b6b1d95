// Package firewall implements the "firewall" half of the IoT
// Meta-Control Firewall: a per-device flow table that blocks outgoing
// controller→device traffic for meta-rules the Energy Planner dropped,
// mirroring the prototype's use of iptables
// ("iptables -A OUTPUT -s 192.168.0.5 -j DROP") to cut TCP flows to
// designated Things on the local network.
//
// Every block is explained: it carries the reason and the causal trace
// of the planning cycle that installed it, and a dropped flow check
// hands both back to the binding, which puts them on the refused
// command's error. Allowed and dropped checks are counted.
package firewall

import (
	"sort"
	"sync"

	"github.com/imcf/imcf/internal/metrics"
)

// Flow-check counters, resolved to their label children once so Check
// pays a single atomic increment per flow.
var (
	checksVec = metrics.NewCounterVec("imcf_firewall_checks_total",
		"Flow checks evaluated by the firewall, by verdict.", "decision")
	checksAllowed = checksVec.With("ACCEPT")
	checksDropped = checksVec.With("DROP")
)

// Decision is the outcome of a flow check.
type Decision int

// Flow decisions.
const (
	Allow Decision = iota
	Drop
)

// String returns the iptables-style verdict name.
func (d Decision) String() string {
	if d == Drop {
		return "DROP"
	}
	return "ACCEPT"
}

// blockEntry is one installed block rule.
type blockEntry struct {
	reason string
	trace  string
}

// Firewall is a thread-safe flow table. The zero value is not usable;
// construct with New.
type Firewall struct {
	mu      sync.Mutex
	blocked map[string]blockEntry
	// counters
	allowed int64
	dropped int64
}

// New returns an empty firewall.
func New() *Firewall {
	return &Firewall{blocked: make(map[string]blockEntry)}
}

// Block drops all future flows to addr, recording why.
func (f *Firewall) Block(addr, reason string) {
	f.BlockTraced(addr, reason, "")
}

// BlockTraced is Block tagged with the causal trace ID of the planning
// cycle that decided the block; subsequent dropped checks of addr
// return it.
func (f *Firewall) BlockTraced(addr, reason, trace string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.blocked[addr] = blockEntry{reason: reason, trace: trace}
}

// Unblock re-allows flows to addr. Unblocking an unblocked address is a
// no-op.
func (f *Firewall) Unblock(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.blocked, addr)
}

// BlockRule is one installed block: the address it drops, the meta-rule
// or operator action behind it, and the causal trace ID of the planning
// cycle that installed it ("" when untraced) — the firewall's end of
// end-to-end tracing.
type BlockRule struct {
	Addr   string
	Reason string
	Trace  string
}

// Replace installs block as the whole block set under one lock
// acquisition: every address not in block is re-allowed. A planning
// cycle's drops are its final word on the firewall, so a device blocked
// by an earlier cycle stays blocked only if this cycle drops it again.
func (f *Firewall) Replace(block []BlockRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	clear(f.blocked)
	for _, r := range block {
		f.blocked[r.Addr] = blockEntry{reason: r.Reason, trace: r.Trace}
	}
}

// Blocked reports whether addr is currently blocked.
func (f *Firewall) Blocked(addr string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.blocked[addr]
	return ok
}

// Check evaluates a flow to addr, counts it and returns the decision;
// a dropped flow also returns the block rule it hit. Bindings call this
// before any device I/O.
func (f *Firewall) Check(addr string) (Decision, BlockRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	entry, isBlocked := f.blocked[addr]
	if !isBlocked {
		f.allowed++
		checksAllowed.Inc()
		return Allow, BlockRule{}
	}
	f.dropped++
	checksDropped.Inc()
	return Drop, BlockRule{Addr: addr, Reason: entry.reason, Trace: entry.trace}
}

// Counters returns the number of allowed and dropped flow checks.
func (f *Firewall) Counters() (allowed, dropped int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.allowed, f.dropped
}

// Rules renders the active block rules in iptables syntax, sorted by
// address — exactly what the prototype would install on the controller.
func (f *Firewall) Rules() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	addrs := make([]string, 0, len(f.blocked))
	for a := range f.blocked {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	out := make([]string, len(addrs))
	for i, a := range addrs {
		out[i] = "-A OUTPUT -s " + a + " -j DROP"
	}
	return out
}

// Reset clears all block rules and the counters.
func (f *Firewall) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.blocked = make(map[string]blockEntry)
	f.allowed, f.dropped = 0, 0
}
