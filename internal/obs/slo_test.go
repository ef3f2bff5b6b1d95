package obs

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// sloT0 is an arbitrary fixed origin: the engine is driven entirely by
// explicit timestamps, so tests never touch the wall clock. Every
// engine publishes the process-global imcf_slo_* families, so each
// test uses tenant labels of its own and reads no global value.
var sloT0 = time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC)

func TestSLOStateMachine(t *testing.T) {
	var fired []string
	// Budget 0.01: warn at an error rate of 0.02, page at 0.1.
	s := NewSLO(Config{
		OnTransition: func(tenant string, from, to State) {
			fired = append(fired, tenant+":"+from.String()+">"+to.String())
		},
	})

	// Exactly on budget: burn 1, state ok.
	now := sloT0
	s.Observe("slo-machine", now, 0.001, true)
	for i := 0; i < 99; i++ {
		s.Observe("slo-machine", now, 0.001, false)
	}
	s.Evaluate(now)
	if got := s.State("slo-machine"); got != StateOK {
		t.Fatalf("state after on-budget traffic = %v, want ok", got)
	}

	// A burst of failures pushes the rate past the page threshold in
	// both the 1m and 5m windows; escalation is immediate and may skip
	// warn entirely.
	now = now.Add(time.Second)
	for i := 0; i < 20; i++ {
		s.Observe("slo-machine", now, 0.001, true)
	}
	s.Evaluate(now)
	if got := s.State("slo-machine"); got != StatePage {
		t.Fatalf("state after failure burst = %v, want page", got)
	}

	// Hysteresis: one clean evaluation is not enough to step down...
	now = now.Add(6 * time.Minute) // both short windows have aged out
	s.Evaluate(now)
	if got := s.State("slo-machine"); got != StatePage {
		t.Fatalf("state after 1 clean evaluation = %v, want page (hysteresis)", got)
	}
	// ...the second one is.
	now = now.Add(time.Second)
	s.Evaluate(now)
	if got := s.State("slo-machine"); got != StateOK {
		t.Fatalf("state after %d clean evaluations = %v, want ok", 2, got)
	}

	want := []string{"slo-machine:ok>page", "slo-machine:page>ok"}
	if len(fired) != len(want) {
		t.Fatalf("transitions %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q", i, fired[i], want[i])
		}
	}
}

func TestSLOWarnBetweenThresholds(t *testing.T) {
	s := NewSLO(Config{})
	now := sloT0
	// Error rate 0.05: past warn (0.02), short of page (0.1).
	for i := 0; i < 5; i++ {
		s.Observe("slo-warn", now, 0.001, true)
	}
	for i := 0; i < 95; i++ {
		s.Observe("slo-warn", now, 0.001, false)
	}
	s.Evaluate(now)
	if got := s.State("slo-warn"); got != StateWarn {
		t.Fatalf("state = %v, want warn", got)
	}
}

func TestSLOPageNeedsBothWindows(t *testing.T) {
	s := NewSLO(Config{})
	// Old successes keep the 5m window healthy; a fresh 100%-error
	// minute alone must not page (the multi-window rule).
	now := sloT0
	for i := 0; i < 1000; i++ {
		s.Observe("slo-page", now, 0.001, false)
	}
	now = now.Add(2 * time.Minute) // 1m window empty of successes now
	for i := 0; i < 3; i++ {
		s.Observe("slo-page", now, 0.001, true)
	}
	s.Evaluate(now)
	// 1m rate = 1.0 (burn 100), 5m rate = 3/1003 (burn < 0.3): no page.
	if got := s.State("slo-page"); got == StatePage {
		t.Fatal("paged on a single-window spike; the 5m window should have held it back")
	}
}

func TestSLOCardinalityBudget(t *testing.T) {
	s := NewSLO(Config{})
	now := sloT0
	// tenantBudget+2 homes: the 257th and 258th overflow.
	var want []string
	for i := 0; i < tenantBudget+2; i++ {
		id := fmt.Sprintf("slo-budget-%03d", i)
		s.Observe(id, now, 0.001, true)
		if i < tenantBudget {
			want = append(want, id)
		}
	}
	want = append([]string{OverflowTenant}, want...)
	snap := s.Snapshot(now)
	var ids []string
	for _, ts := range snap {
		ids = append(ids, ts.Tenant)
	}
	if len(ids) != len(want) {
		t.Fatalf("%d tenants tracked, want %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("tenant %d = %q, want %q", i, ids[i], want[i])
		}
	}
	// The overflow bucket aggregated both surplus tenants' samples.
	for _, ts := range snap {
		if ts.Tenant == OverflowTenant && ts.Windows[0].Count != 2 {
			t.Fatalf("overflow bucket count = %d, want 2", ts.Windows[0].Count)
		}
	}
	if got := s.State(fmt.Sprintf("slo-budget-%03d", tenantBudget)); got != StateOK {
		t.Fatalf("overflowed tenant state = %v, want ok (no per-tenant tracking)", got)
	}
}

// sloSample is one observation in the property tests' reference model.
type sloSample struct {
	at      time.Time
	seconds float64
	isErr   bool
}

// refMerge recomputes a window's aggregate from the raw sample list —
// the brute-force model the incremental ring must match.
func refMerge(samples []sloSample, span time.Duration, now time.Time) merged {
	bucketDur := span / windowSlots
	newest := now.UnixNano() / int64(bucketDur)
	oldest := newest - windowSlots + 1
	var m merged
	for _, s := range samples {
		idx := s.at.UnixNano() / int64(bucketDur)
		if idx < oldest || idx > newest {
			continue
		}
		m.count++
		if s.isErr {
			m.errs++
		}
		m.lat[latIndex(s.seconds)]++
	}
	return m
}

// TestSLOWindowMergeMatchesRecomputation is the window-math property:
// for random monotone sample streams, the incremental rolling-ring
// aggregate equals a brute-force recomputation over the raw samples,
// at every checkpoint, for every window.
func TestSLOWindowMergeMatchesRecomputation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		s := NewSLO(Config{})
		var samples []sloSample
		now := sloT0
		steps := 200 + rng.Intn(400)
		for i := 0; i < steps; i++ {
			// Jumps up to ~4m routinely age buckets out of the 1m and 5m
			// windows mid-stream; the occasional ~40m jump cycles the 1h
			// ring past slot reuse.
			jump := time.Duration(rng.Intn(4000)) * 60 * time.Millisecond
			if rng.Intn(50) == 0 {
				jump = time.Duration(rng.Intn(40)) * time.Minute
			}
			now = now.Add(jump)
			sm := sloSample{at: now, seconds: rng.Float64() * 2, isErr: rng.Intn(3) == 0}
			samples = append(samples, sm)
			s.Observe("slo-merge", sm.at, sm.seconds, sm.isErr)

			if i%17 != 0 {
				continue
			}
			s.mu.Lock()
			ten := s.tenants["slo-merge"]
			for w := range windowSpans {
				got := ten.windows[w].mergeAt(now)
				want := refMerge(samples, windowSpans[w], now)
				if got != want {
					s.mu.Unlock()
					t.Fatalf("trial %d step %d window %s: merged %+v, recomputed %+v",
						trial, i, windowNames[w], got, want)
				}
			}
			s.mu.Unlock()
		}
	}
}

// TestSLOBurnRateMonotoneUnderSustainedErrors is the burn-rate
// property: once a tenant fails every cycle, each window's burn rate
// never decreases — old successes aging out can only push it up, until
// it saturates at 1/errorBudget.
func TestSLOBurnRateMonotoneUnderSustainedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		s := NewSLO(Config{})
		now := sloT0
		// A healthy prefix: random successes over ~30 minutes.
		for i := 0; i < 200; i++ {
			now = now.Add(time.Duration(rng.Intn(9000)) * time.Millisecond)
			s.Observe("slo-burn", now, 0.001, false)
		}
		// Then sustained failure, one cycle per second.
		prev := [len(windowSpans)]float64{}
		for i := 0; i < 400; i++ {
			now = now.Add(time.Second)
			s.Observe("slo-burn", now, 0.001, true)
			snap := s.Snapshot(now)
			if len(snap) != 1 {
				t.Fatalf("snapshot has %d tenants, want 1", len(snap))
			}
			for w, ws := range snap[0].Windows {
				if ws.BurnRate < prev[w]-1e-9 {
					t.Fatalf("trial %d step %d window %s: burn fell %.6f -> %.6f under sustained errors",
						trial, i, ws.Window, prev[w], ws.BurnRate)
				}
				prev[w] = ws.BurnRate
			}
		}
		// Saturation: the short windows hold nothing but errors now.
		final := s.Snapshot(now)[0].Windows
		for _, w := range final[:2] {
			if got, want := w.BurnRate, 1/errorBudget; got != want {
				t.Fatalf("window %s burn = %v at saturation, want %v", w.Window, got, want)
			}
		}
	}
}

func TestSLOSnapshotIsReadOnly(t *testing.T) {
	s := NewSLO(Config{})
	now := sloT0
	for i := 0; i < 10; i++ {
		s.Observe("slo-snapshot", now, 0.001, true)
	}
	for i := 0; i < 5; i++ {
		s.Snapshot(now)
	}
	if got := s.State("slo-snapshot"); got != StateOK {
		t.Fatalf("Snapshot advanced the state machine to %v", got)
	}
	s.Evaluate(now)
	if got := s.State("slo-snapshot"); got != StatePage {
		t.Fatalf("Evaluate left state %v, want page", got)
	}
}
