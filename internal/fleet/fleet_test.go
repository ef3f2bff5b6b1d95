package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func member(id string, step func(ctx context.Context) error) Member {
	if step == nil {
		step = func(context.Context) error { return nil }
	}
	return Member{ID: id, Step: step}
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]Member{member("", nil)}, Options{}); err == nil {
		t.Error("empty tenant ID accepted")
	}
	if _, err := New([]Member{{ID: "h1"}}, Options{}); err == nil {
		t.Error("nil Step accepted")
	}
	if _, err := New([]Member{member("h1", nil), member("h1", nil)}, Options{}); err == nil {
		t.Error("duplicate tenant ID accepted")
	}
	s, err := New(nil, Options{})
	if err != nil {
		t.Fatalf("empty fleet rejected: %v", err)
	}
	if err := s.Cycle(context.Background()); err != nil {
		t.Errorf("empty Cycle: %v", err)
	}
}

func TestAccessorsAndSortedOrder(t *testing.T) {
	s, err := New([]Member{member("h3", nil), member("h1", nil), member("h2", nil)},
		Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Workers() != 4 {
		t.Errorf("Workers = %d", s.Workers())
	}
	if got, want := s.Tenants(), []string{"h1", "h2", "h3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Tenants = %v, want %v", got, want)
	}
}

// TestSequentialDispatchOrder pins the workers=1 reference schedule:
// strictly one at a time, in tenant-ID order.
func TestSequentialDispatchOrder(t *testing.T) {
	var mu sync.Mutex
	var order []string
	mk := func(id string) Member {
		return member(id, func(context.Context) error {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return nil
		})
	}
	s, err := New([]Member{mk("b"), mk("c"), mk("a")}, Options{Workers: 1, NoMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 3; cycle++ {
		if err := s.Cycle(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("dispatch order = %v, want %v", order, want)
	}
}

// TestWorkerBound checks the pool really bounds concurrency and really
// uses it: with workers=4 and steps that block until enough peers
// arrive, the cycle only completes if 4 run at once, and in-flight
// never exceeds 4.
func TestWorkerBound(t *testing.T) {
	const workers = 4
	var inFlight, peak atomic.Int64
	arrived := make(chan struct{}, 16)
	release := make(chan struct{})
	var members []Member
	for _, id := range []string{"a", "b", "c", "d", "e", "f"} {
		members = append(members, member(id, func(context.Context) error {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			arrived <- struct{}{}
			<-release
			inFlight.Add(-1)
			return nil
		}))
	}
	s, err := New(members, Options{Workers: workers, NoMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Cycle(context.Background()) }()

	// Exactly `workers` steps can start before any is released.
	for i := 0; i < workers; i++ {
		<-arrived
	}
	select {
	case <-arrived:
		t.Fatal("more than Workers steps in flight")
	default:
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != workers {
		t.Errorf("peak concurrency = %d, want %d", got, workers)
	}
}

// TestErrorIsolationAndOrder: one failing tenant never stops the rest,
// and both OnError and the joined error report in tenant-ID order.
func TestErrorIsolationAndOrder(t *testing.T) {
	boomB := errors.New("b exploded")
	boomD := errors.New("d exploded")
	var stepped atomic.Int64
	ok := func(context.Context) error { stepped.Add(1); return nil }
	var reported []string
	s, err := New([]Member{
		member("d", func(context.Context) error { return boomD }),
		member("a", ok),
		member("b", func(context.Context) error { return boomB }),
		member("c", ok),
	}, Options{
		Workers: 8,
		OnError: func(id string, err error) { reported = append(reported, id) },
	})
	if err != nil {
		t.Fatal(err)
	}
	cycleErr := s.Cycle(context.Background())
	if cycleErr == nil {
		t.Fatal("Cycle swallowed tenant errors")
	}
	if !errors.Is(cycleErr, boomB) || !errors.Is(cycleErr, boomD) {
		t.Errorf("joined error lost a cause: %v", cycleErr)
	}
	if stepped.Load() != 2 {
		t.Errorf("healthy tenants stepped = %d, want 2", stepped.Load())
	}
	if want := []string{"b", "d"}; !reflect.DeepEqual(reported, want) {
		t.Errorf("OnError order = %v, want %v", reported, want)
	}
	if !strings.Contains(cycleErr.Error(), "tenant b") {
		t.Errorf("error does not name the tenant: %v", cycleErr)
	}

	// The error scratch resets: a failing-then-clean schedule reports
	// nil on its clean cycle.
	var fail atomic.Bool
	fail.Store(true)
	s3, err := New([]Member{member("x", func(context.Context) error {
		if fail.Load() {
			return errors.New("first cycle only")
		}
		return nil
	})}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.Cycle(context.Background()); err == nil {
		t.Fatal("first cycle should fail")
	}
	fail.Store(false)
	if err := s3.Cycle(context.Background()); err != nil {
		t.Errorf("stale error leaked into clean cycle: %v", err)
	}
}

// TestMemberErrorsExtraction pins the typed-error contract: a Cycle
// error flattens into *MemberError values in tenant-ID order, each
// carrying the tenant ID as a field and unwrapping to the tenant's own
// cause, so callers never parse error strings.
func TestMemberErrorsExtraction(t *testing.T) {
	boomB := errors.New("b exploded")
	boomD := errors.New("d exploded")
	s, err := New([]Member{
		member("d", func(context.Context) error { return boomD }),
		member("b", func(context.Context) error { return boomB }),
		member("a", nil),
	}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cycleErr := s.Cycle(context.Background())
	mes := MemberErrors(cycleErr)
	if len(mes) != 2 {
		t.Fatalf("MemberErrors len = %d, want 2 (%v)", len(mes), cycleErr)
	}
	if mes[0].Tenant != "b" || mes[1].Tenant != "d" {
		t.Errorf("tenant order = %q, %q, want b, d", mes[0].Tenant, mes[1].Tenant)
	}
	if !errors.Is(mes[0], boomB) || !errors.Is(mes[1], boomD) {
		t.Errorf("unwrap lost the cause: %v, %v", mes[0], mes[1])
	}
	if got := mes[0].Error(); got != "tenant b: b exploded" {
		t.Errorf("message shape = %q", got)
	}

	if MemberErrors(nil) != nil {
		t.Error("MemberErrors(nil) != nil")
	}
	if MemberErrors(errors.New("foreign")) != nil {
		t.Error("foreign error yielded members")
	}

	// A single wrapped *MemberError (no Join) still extracts.
	single := fmt.Errorf("cycle: %w", &MemberError{Tenant: "z", Err: errors.New("zz")})
	if got := MemberErrors(single); len(got) != 1 || got[0].Tenant != "z" {
		t.Errorf("single wrapped extraction = %v", got)
	}
}

// TestObserveHook: ObserveResult sees every member once per cycle,
// with that member's own latency and, for a failing member, its error.
func TestObserveHook(t *testing.T) {
	const nap = 2 * time.Millisecond
	boom := errors.New("boom")
	type result struct {
		seconds float64
		err     error
	}
	var mu sync.Mutex
	seen := map[string][]result{}
	s, err := New([]Member{
		member("h1", func(context.Context) error { time.Sleep(nap); return nil }),
		member("h2", func(context.Context) error { return boom }),
	}, Options{
		Workers: 2,
		ObserveResult: func(id string, seconds float64, err error) {
			mu.Lock()
			seen[id] = append(seen[id], result{seconds, err})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cycle(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Cycle = %v, want h2's error", err)
	}
	if len(seen["h1"]) != 1 || len(seen["h2"]) != 1 {
		t.Fatalf("ObserveResult calls = %v", seen)
	}
	h1, h2 := seen["h1"][0], seen["h2"][0]
	if h1.err != nil || h1.seconds < nap.Seconds() {
		t.Errorf("h1 observed %+v, want no error and at least %v", h1, nap)
	}
	if !errors.Is(h2.err, boom) || h2.seconds < 0 {
		t.Errorf("h2 observed %+v, want its error and a latency", h2)
	}
}

// TestCycleCanceledContext: a canceled context skips dispatch and
// reports every tenant's context error, without calling Steps.
func TestCycleCanceledContext(t *testing.T) {
	var stepped atomic.Int64
	s, err := New([]Member{
		member("h1", func(context.Context) error { stepped.Add(1); return nil }),
		member("h2", func(context.Context) error { stepped.Add(1); return nil }),
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cErr := s.Cycle(ctx)
	if cErr == nil {
		t.Fatal("canceled Cycle returned nil")
	}
	if !errors.Is(cErr, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", cErr)
	}
	if stepped.Load() != 0 {
		t.Errorf("steps ran under canceled context: %d", stepped.Load())
	}
}

// TestCycleMetricsRecorded scrapes the package families after a cycle
// with metrics enabled.
func TestCycleMetricsRecorded(t *testing.T) {
	before, errsBefore := fleetCycles.Value(), tenantErrors.With("mh2").Value()
	s, err := New([]Member{
		member("mh1", nil),
		member("mh2", func(context.Context) error { return errors.New("boom") }),
	}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fleetTenants.Value() != 2 {
		t.Errorf("fleetTenants = %v, want 2", fleetTenants.Value())
	}
	if err := s.Cycle(context.Background()); err == nil {
		t.Fatal("expected tenant error")
	}
	if got := fleetCycles.Value(); got != before+1 {
		t.Errorf("fleetCycles = %d, want %d", got, before+1)
	}
	if got := tenantErrors.With("mh2").Value(); got != errsBefore+1 {
		t.Errorf("tenantErrors{mh2} = %d, want %d", got, errsBefore+1)
	}
	// The plan-latency gauges were resolved once, in member order.
	for i, id := range s.Tenants() {
		if s.planGauges[i] != tenantPlanSeconds.With(id) {
			t.Errorf("plan gauge %d is not tenant %s's child", i, id)
		}
	}
}
