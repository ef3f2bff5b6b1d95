// Package firewall implements the "firewall" half of the IoT
// Meta-Control Firewall: a per-device flow table that blocks outgoing
// controller→device traffic for meta-rules the Energy Planner dropped,
// mirroring the prototype's use of iptables
// ("iptables -A OUTPUT -s 192.168.0.5 -j DROP") to cut TCP flows to
// designated Things on the local network.
//
// Every decision is auditable: the firewall records allowed and dropped
// flow checks with timestamps, so the bench and examples can demonstrate
// that dropped rules produce no device traffic.
package firewall

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/imcf/imcf/internal/metrics"
	"github.com/imcf/imcf/internal/simclock"
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

// AuditEntry records one flow check.
type AuditEntry struct {
	Time     time.Time
	Addr     string
	Decision Decision
	// Reason is the meta-rule or operator action behind a block, empty
	// for allowed flows.
	Reason string
	// Trace is the causal trace ID of the planning cycle that installed
	// the block rule this check hit, empty for allowed flows and for
	// untraced blocks — the firewall's end of end-to-end tracing.
	Trace string
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
	clock   simclock.Clock
	blocked map[string]blockEntry
	audit   []AuditEntry
	// counters
	allowed int64
	dropped int64
	// auditLimit bounds the in-memory audit log.
	auditLimit int
}

// New returns an empty firewall using the given clock for audit
// timestamps (nil means the system clock).
func New(clock simclock.Clock) *Firewall {
	if clock == nil {
		clock = simclock.RealClock{}
	}
	return &Firewall{
		clock:      clock,
		blocked:    make(map[string]blockEntry),
		auditLimit: 4096,
	}
}

// Block drops all future flows to addr, recording why.
func (f *Firewall) Block(addr, reason string) {
	f.BlockTraced(addr, reason, "")
}

// BlockTraced is Block tagged with the causal trace ID of the planning
// cycle that decided the block; subsequent dropped checks of addr carry
// the trace in their audit entries.
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

// BlockRule is one entry of a batched block application.
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

// Check evaluates a flow to addr, records it in the audit log and
// returns the decision. Bindings call this before any device I/O.
func (f *Firewall) Check(addr string) Decision {
	f.mu.Lock()
	defer f.mu.Unlock()
	entry, isBlocked := f.blocked[addr]
	d := Allow
	if isBlocked {
		d = Drop
		f.dropped++
		checksDropped.Inc()
	} else {
		f.allowed++
		checksAllowed.Inc()
	}
	f.audit = append(f.audit, AuditEntry{
		Time:     f.clock.Now(),
		Addr:     addr,
		Decision: d,
		Reason:   entry.reason,
		Trace:    entry.trace,
	})
	if len(f.audit) > f.auditLimit {
		// Keep the most recent half; copy so the old backing array is
		// released.
		keep := f.audit[len(f.audit)-f.auditLimit/2:]
		f.audit = append(make([]AuditEntry, 0, f.auditLimit), keep...)
	}
	return d
}

// Audit returns a copy of the audit log, oldest first.
func (f *Firewall) Audit() []AuditEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]AuditEntry, len(f.audit))
	copy(out, f.audit)
	return out
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
		out[i] = fmt.Sprintf("-A OUTPUT -s %s -j DROP", a)
	}
	return out
}

// Reset clears all block rules and the audit log.
func (f *Firewall) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.blocked = make(map[string]blockEntry)
	f.audit = nil
	f.allowed, f.dropped = 0, 0
}
