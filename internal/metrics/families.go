package metrics

// Canonical metric families of the IMCF serving path. They live here —
// not in the packages that observe them — because several layers feed
// the same family (the live controller and the trace-driven simulator
// both observe planner windows and rule outcomes), and because the
// daemon must expose every family from process start, before the first
// planning cycle runs.
//
// Naming follows Prometheus conventions: `imcf_` prefix, `_total`
// suffix on integer counters, base units in the name (seconds, kwh).
var (
	// PlannerWindowSeconds is planner time, the paper's F_T, for one
	// decision. The simulator observes one sample per EP plan window
	// (window build plus search) and one per baseline slot; the
	// controller one per cycle, around its EP, IFTTT or manual verdict.
	// Sensing, actuation, journaling and publishing are not in it: a
	// controller cycle's whole time is its controller.step span.
	PlannerWindowSeconds = NewHistogram("imcf_planner_window_seconds",
		"Planner time of one decision: an EP window or baseline slot in the simulator, one cycle's verdict in the controller.",
		DurationBuckets)

	// PlannerPlans counts planner invocations (EP searches).
	PlannerPlans = NewCounter("imcf_planner_plans_total",
		"Energy Planner invocations.")

	// PlannerIterations counts k-opt local-search iterations across all
	// planner invocations.
	PlannerIterations = NewCounter("imcf_planner_iterations_total",
		"k-opt local search iterations executed by the Energy Planner.")

	// RulesConsidered counts rule-slot pairs presented to the planning
	// layer (active meta-rules per window/cycle). Every considered rule
	// is either executed or dropped, so at all times
	// considered == executed + dropped.
	RulesConsidered = NewCounter("imcf_rules_considered_total",
		"Meta-rule decisions presented to the planner (executed + dropped).")

	// RulesExecuted counts rule decisions admitted for execution.
	RulesExecuted = NewCounter("imcf_rules_executed_total",
		"Meta-rule decisions admitted and executed.")

	// RulesDropped counts rule decisions denied (dropped by the planner
	// to hold the energy budget).
	RulesDropped = NewCounter("imcf_rules_dropped_total",
		"Meta-rule decisions dropped by the planner to hold the budget.")

	// EnergyConsumedKWh accumulates F_E: the energy consumed by executed
	// rules, in kWh.
	EnergyConsumedKWh = NewFloatCounter("imcf_energy_consumed_kwh",
		"Energy consumed by executed meta-rules (F_E), in kWh.")

	// ConvenienceErrorSum accumulates the raw convenience error of
	// dropped rule decisions (the numerator of F_CE); divide by
	// imcf_rules_considered_total for the mean normalized error.
	ConvenienceErrorSum = NewFloatCounter("imcf_convenience_error_sum",
		"Accumulated convenience error of dropped decisions (F_CE numerator).")

	// TraceRequests counts HTTP requests entering trace-aware handlers,
	// split by whether the traceparent arrived from an upstream hop
	// ("propagated") or had to be minted fresh ("minted"). A healthy
	// multi-hop deployment propagates on every interior hop.
	TraceRequests = NewCounterVec("imcf_trace_requests_total",
		"Trace-aware HTTP requests, by trace origin.", "origin")
)
