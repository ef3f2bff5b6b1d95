package core

import (
	"math"
	"testing"
	"testing/quick"
)

// smallProblem is a hand-checkable 4-rule slot: budget admits two of the
// three energy-hungry rules plus the free one.
func smallProblem() Problem {
	return Problem{
		Costs: []RuleCost{
			{DropError: 0.9, Energy: 0.6},  // expensive, important
			{DropError: 0.5, Energy: 0.6},  // expensive, medium
			{DropError: 0.1, Energy: 0.6},  // expensive, minor
			{DropError: 0.7, Energy: 0.05}, // cheap, important
		},
		Budget: 1.3,
	}
}

func newPlanner(t *testing.T, mut func(*Config)) *Planner {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 1
	if mut != nil {
		mut(&cfg)
	}
	pl, err := NewPlanner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestEvaluate(t *testing.T) {
	p := smallProblem()
	e := Evaluate(p, Solution{true, false, false, true})
	if math.Abs(e.Energy-0.65) > 1e-12 {
		t.Errorf("Energy = %v, want 0.65", e.Energy)
	}
	if math.Abs(e.Error-0.6) > 1e-12 {
		t.Errorf("Error = %v, want 0.6", e.Error)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	Evaluate(p, Solution{true})
}

func TestBaselines(t *testing.T) {
	p := smallProblem()
	s, e := NoRule(p)
	if s.CountOn() != 0 || e.Energy != 0 {
		t.Errorf("NR = %v, %+v", s, e)
	}
	if math.Abs(e.Error-2.2) > 1e-12 {
		t.Errorf("NR error = %v, want 2.2", e.Error)
	}
	s, e = MetaRuleAll(p)
	if s.CountOn() != 4 || e.Error != 0 {
		t.Errorf("MR = %v, %+v", s, e)
	}
	if math.Abs(e.Energy-1.85) > 1e-12 {
		t.Errorf("MR energy = %v, want 1.85", e.Energy)
	}
}

func TestExhaustiveOptimum(t *testing.T) {
	pl := newPlanner(t, func(c *Config) { c.Heuristic = Exhaustive })
	p := smallProblem()
	s, e, err := pl.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	// Optimum: execute rules 0, 1 (1.2 kWh) and 3 (0.05) = 1.25 ≤ 1.3,
	// dropping only rule 2 for error 0.1.
	want := Solution{true, true, false, true}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("exhaustive solution = %v, want %v", s, want)
		}
	}
	if math.Abs(e.Error-0.1) > 1e-12 || !e.Feasible(p.Budget) {
		t.Errorf("exhaustive eval = %+v", e)
	}
}

func TestExhaustiveTooLarge(t *testing.T) {
	pl := newPlanner(t, func(c *Config) { c.Heuristic = Exhaustive })
	p := Problem{Costs: make([]RuleCost, ExhaustiveMaxN+1), Budget: 1}
	if _, _, err := pl.Plan(p); err == nil {
		t.Error("oversized exhaustive problem accepted")
	}
}

func TestHillClimbFindsGoodSolution(t *testing.T) {
	for _, init := range []InitStrategy{InitAllOn, InitRandom, InitAllOff} {
		pl := newPlanner(t, func(c *Config) { c.Init = init; c.MaxIter = 300 })
		p := smallProblem()
		s, e, err := pl.Plan(p)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Feasible(p.Budget) {
			t.Errorf("init %v: infeasible result %+v", init, e)
		}
		if e.Error > 0.5+1e-12 {
			t.Errorf("init %v: error %v far from optimum 0.1", init, e.Error)
		}
		if got := Evaluate(p, s); got != e {
			t.Errorf("init %v: reported eval %+v != recomputed %+v", init, e, got)
		}
	}
}

func TestZeroGainPruning(t *testing.T) {
	p := Problem{
		Costs: []RuleCost{
			{DropError: 0, Energy: 0.6},   // ambient already fine
			{DropError: 0.8, Energy: 0.6}, // needed
		},
		Budget: 10, // plenty
	}
	pl := newPlanner(t, nil)
	s, e, err := pl.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if s[0] {
		t.Error("zero-gain rule executed despite pruning")
	}
	if !s[1] || e.Error != 0 {
		t.Errorf("useful rule dropped: %v %+v", s, e)
	}
	if math.Abs(e.Energy-0.6) > 1e-12 {
		t.Errorf("energy = %v, want 0.6 (no waste)", e.Energy)
	}

	// With KeepZeroGain the greedy all-1s init keeps both on.
	pl = newPlanner(t, func(c *Config) { c.KeepZeroGain = true; c.MaxIter = 0 })
	s, e, err = pl.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if !s[0] || !s[1] {
		t.Errorf("KeepZeroGain all-1s init = %v", s)
	}
	if math.Abs(e.Energy-1.2) > 1e-12 {
		t.Errorf("energy = %v, want 1.2", e.Energy)
	}
}

func TestRepairGuaranteesFeasibility(t *testing.T) {
	// Zero iterations: all-1s init is infeasible and only repair fixes it.
	pl := newPlanner(t, func(c *Config) { c.MaxIter = 0 })
	p := smallProblem()
	s, e, err := pl.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Feasible(p.Budget) {
		t.Fatalf("repair left infeasible eval %+v", e)
	}
	if got := Evaluate(p, s); got != e {
		t.Errorf("eval mismatch: %+v vs %+v", e, got)
	}
	// Repair drops by error-per-kWh: rule 2 (0.1/0.6) goes first.
	if s[2] {
		t.Errorf("repair kept the least valuable rule: %v", s)
	}
}

func TestZeroBudget(t *testing.T) {
	// With E_p = 0 the planner must act as NR (paper Lemma 1's worst
	// case).
	p := smallProblem()
	p.Budget = 0
	for _, h := range []Heuristic{HillClimb, Anneal, Exhaustive} {
		pl := newPlanner(t, func(c *Config) { c.Heuristic = h })
		s, e, err := pl.Plan(p)
		if err != nil {
			t.Fatal(err)
		}
		if s.CountOn() != 0 || e.Energy != 0 {
			t.Errorf("%v: zero budget executed rules: %v %+v", h, s, e)
		}
	}
}

func TestEmptyProblem(t *testing.T) {
	pl := newPlanner(t, nil)
	s, e, err := pl.Plan(Problem{})
	if err != nil || len(s) != 0 || e != (Eval{}) {
		t.Errorf("empty problem = %v, %+v, %v", s, e, err)
	}
}

func TestProblemValidation(t *testing.T) {
	pl := newPlanner(t, nil)
	if _, _, err := pl.Plan(Problem{Budget: -1}); err == nil {
		t.Error("negative budget accepted")
	}
	bad := Problem{Costs: []RuleCost{{DropError: -0.1, Energy: 1}}, Budget: 1}
	if _, _, err := pl.Plan(bad); err == nil {
		t.Error("negative drop error accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{K: 0, MaxIter: 10, Init: InitAllOn},
		{K: 1, MaxIter: -1, Init: InitAllOn},
		{K: 1, MaxIter: 10, Init: 0},
		{K: 1, MaxIter: 10, Init: InitAllOn, Heuristic: 9},
	}
	for i, c := range bad {
		if _, err := NewPlanner(c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	// FlipIter is journaled as an int32, so τ_max stops at MaxInt32.
	over := int64(math.MaxInt32) + 1
	if err := (Config{K: 1, MaxIter: int(over), Init: InitAllOn}).Validate(); err == nil {
		t.Errorf("MaxIter %d accepted", over)
	}
	if err := (Config{K: 1, MaxIter: math.MaxInt32, Init: InitAllOn}).Validate(); err != nil {
		t.Errorf("MaxIter MaxInt32 rejected: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	p := smallProblem()
	run := func() (Solution, Eval) {
		pl := newPlanner(t, func(c *Config) { c.Init = InitRandom; c.Seed = 99 })
		s, e, err := pl.Plan(p)
		if err != nil {
			t.Fatal(err)
		}
		return s, e
	}
	s1, e1 := run()
	s2, e2 := run()
	if e1 != e2 {
		t.Errorf("same seed diverged: %+v vs %+v", e1, e2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Errorf("same seed produced different solutions")
			break
		}
	}
}

func TestKOptImprovesWithK(t *testing.T) {
	// A 1-flip trap: from all-0s, switching on B or C first (error
	// 0.55) blocks every further single flip — A or the sibling would
	// exceed the budget — while the optimum is A alone (error 0.5).
	// Escaping the trap requires a coordinated 2-flip, so k ≥ 2 must
	// do at least as well as k = 1 on average.
	p := Problem{
		Costs: []RuleCost{
			{DropError: 0.30, Energy: 1.0}, // A: the optimum alone
			{DropError: 0.25, Energy: 0.6}, // B
			{DropError: 0.25, Energy: 0.6}, // C
		},
		Budget: 1.0,
	}
	meanErr := func(k int) float64 {
		var sum float64
		const reps = 60
		for seed := 0; seed < reps; seed++ {
			pl := newPlanner(t, func(c *Config) {
				c.K = k
				c.MaxIter = 80
				c.Seed = uint64(seed)
				c.Init = InitAllOff
			})
			_, e, err := pl.Plan(p)
			if err != nil {
				t.Fatal(err)
			}
			sum += e.Error
		}
		return sum / reps
	}
	e1, e2, e4 := meanErr(1), meanErr(2), meanErr(4)
	if e2 > e1+1e-9 {
		t.Errorf("k=2 mean error %v worse than k=1 %v", e2, e1)
	}
	if e4 > e1+1e-9 {
		t.Errorf("k=4 mean error %v worse than k=1 %v", e4, e1)
	}
	if e1 <= 0.5+1e-9 {
		t.Errorf("k=1 mean error %v escaped the trap; test premise broken", e1)
	}
}

func TestAnnealComparableToHillClimb(t *testing.T) {
	p := smallProblem()
	hc := newPlanner(t, func(c *Config) { c.MaxIter = 200 })
	an := newPlanner(t, func(c *Config) { c.Heuristic = Anneal; c.MaxIter = 200 })
	_, eh, err := hc.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	_, ea, err := an.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if !ea.Feasible(p.Budget) {
		t.Errorf("anneal infeasible: %+v", ea)
	}
	if ea.Error > eh.Error+0.5 {
		t.Errorf("anneal error %v much worse than hill climb %v", ea.Error, eh.Error)
	}
}

func TestSolutionHelpers(t *testing.T) {
	s := Solution{true, false, true}
	c := s.Clone()
	c[0] = false
	if !s[0] {
		t.Error("Clone aliases the original")
	}
	if s.CountOn() != 2 {
		t.Errorf("CountOn = %d", s.CountOn())
	}
}

func TestStringers(t *testing.T) {
	if InitAllOn.String() != "all-1s" || InitRandom.String() != "random" || InitAllOff.String() != "all-0s" {
		t.Error("init strategy names wrong")
	}
	if HillClimb.String() != "hill-climb" || Anneal.String() != "anneal" || Exhaustive.String() != "exhaustive" {
		t.Error("heuristic names wrong")
	}
}

// randomProblem builds a bounded random problem from quick's raw values.
func randomProblem(errs []uint8, energies []uint8, budgetRaw uint16) Problem {
	n := len(errs)
	if len(energies) < n {
		n = len(energies)
	}
	if n > 12 {
		n = 12
	}
	p := Problem{Budget: float64(budgetRaw%400) / 100}
	for i := 0; i < n; i++ {
		p.Costs = append(p.Costs, RuleCost{
			DropError: float64(errs[i]%100) / 100,
			Energy:    float64(energies[i]%80) / 100,
		})
	}
	return p
}

func TestPropertyPlansAreFeasibleAndConsistent(t *testing.T) {
	f := func(errs []uint8, energies []uint8, budgetRaw uint16, seed uint16) bool {
		p := randomProblem(errs, energies, budgetRaw)
		for _, h := range []Heuristic{HillClimb, Anneal} {
			cfg := DefaultConfig()
			cfg.Heuristic = h
			cfg.MaxIter = 80
			cfg.Seed = uint64(seed)
			pl, err := NewPlanner(cfg)
			if err != nil {
				return false
			}
			s, e, err := pl.Plan(p)
			if err != nil {
				return false
			}
			if len(s) != len(p.Costs) {
				return false
			}
			if !e.Feasible(p.Budget) {
				return false
			}
			if got := Evaluate(p, s); math.Abs(got.Energy-e.Energy) > 1e-9 || math.Abs(got.Error-e.Error) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyHillClimbNearExhaustive(t *testing.T) {
	// On small problems, hill climbing with a healthy iteration budget
	// must land within a modest factor of the exhaustive optimum.
	f := func(errs []uint8, energies []uint8, budgetRaw uint16, seed uint16) bool {
		p := randomProblem(errs, energies, budgetRaw)
		if len(p.Costs) == 0 {
			return true
		}
		ex, err := NewPlanner(Config{K: 1, MaxIter: 1, Init: InitAllOn, Heuristic: Exhaustive})
		if err != nil {
			return false
		}
		_, opt, err := ex.Plan(p)
		if err != nil {
			return false
		}
		cfg := DefaultConfig()
		cfg.MaxIter = 800
		cfg.Seed = uint64(seed)
		hc, err := NewPlanner(cfg)
		if err != nil {
			return false
		}
		_, got, err := hc.Plan(p)
		if err != nil {
			return false
		}
		// Never better than the optimum, and not absurdly worse. The
		// slack is deliberately generous: hill climbing is a heuristic
		// and adversarial random knapsacks can trap it.
		if got.Error < opt.Error-1e-9 {
			return false
		}
		return got.Error <= opt.Error+0.9*(totalError(p)-opt.Error)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPropertyZeroGainNeverExecuted(t *testing.T) {
	f := func(errs []uint8, energies []uint8, budgetRaw uint16, seed uint16) bool {
		p := randomProblem(errs, energies, budgetRaw)
		cfg := DefaultConfig()
		cfg.Seed = uint64(seed)
		cfg.Init = InitRandom
		pl, err := NewPlanner(cfg)
		if err != nil {
			return false
		}
		s, _, err := pl.Plan(p)
		if err != nil {
			return false
		}
		for i, c := range p.Costs {
			if c.DropError == 0 && s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLemma1ZeroBudgetIsNR encodes the paper's Lemma 1 worst case: with
// an energy budget of zero, IMCF acts as the No-Rule baseline — maximal
// convenience error, zero energy.
func TestLemma1ZeroBudgetIsNR(t *testing.T) {
	p := smallProblem()
	p.Budget = 0
	pl := newPlanner(t, nil)
	_, got, err := pl.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	_, nr := NoRule(p)
	if got != nr {
		t.Errorf("EP at zero budget = %+v, NR = %+v", got, nr)
	}
}

// TestLemma2UnboundedBudgetIsMR encodes Lemma 2's worst case: with no
// effective budget constraint (and zero-gain pruning off, since MR
// executes everything greedily), IMCF acts as the Meta-Rule baseline —
// zero convenience error, maximal energy.
func TestLemma2UnboundedBudgetIsMR(t *testing.T) {
	p := smallProblem()
	_, mr := MetaRuleAll(p)
	p.Budget = mr.Energy // exactly enough for everything
	pl := newPlanner(t, func(c *Config) { c.KeepZeroGain = true; c.MaxIter = 200 })
	_, got, err := pl.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Error != 0 {
		t.Errorf("EP at unbounded budget has error %v, want 0 (MR)", got.Error)
	}
	if got.Energy > mr.Energy+1e-9 {
		t.Errorf("EP energy %v exceeds MR %v", got.Energy, mr.Energy)
	}
}
