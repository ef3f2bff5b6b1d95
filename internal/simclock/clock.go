package simclock

import (
	"sort"
	"sync"
	"time"
)

// Clock abstracts time for components that schedule work (the daemon's
// planning schedule, lease expiry in the store). Production code uses
// RealClock; tests and simulations use SimClock and drive it explicitly.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// After returns a channel that receives the then-current time once
	// at least d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// RealClock is a Clock backed by the system clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// After implements Clock.
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// SimClock is a manually advanced Clock. The zero value is not usable;
// construct with NewSimClock.
type SimClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []waiter
}

type waiter struct {
	at time.Time
	ch chan time.Time
}

// NewSimClock returns a simulated clock frozen at start.
func NewSimClock(start time.Time) *SimClock {
	return &SimClock{now: start}
}

// Now implements Clock.
func (c *SimClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After implements Clock. The returned channel fires when Advance moves
// the clock past the deadline.
func (c *SimClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	deadline := c.now.Add(d)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, waiter{at: deadline, ch: ch})
	return ch
}

// Advance moves the simulated clock forward by d, firing any waiters whose
// deadlines are reached, in deadline order.
func (c *SimClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now := c.now
	var due []waiter
	remaining := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.at.After(now) {
			due = append(due, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	c.waiters = remaining
	c.mu.Unlock()

	sort.Slice(due, func(i, j int) bool { return due[i].at.Before(due[j].at) })
	for _, w := range due {
		w.ch <- now
	}
}

// PendingWaiters returns the number of unfired After channels, which is
// useful for test assertions.
func (c *SimClock) PendingWaiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
