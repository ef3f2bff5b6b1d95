// Command benchmark is IMCF's one checked benchmark. It runs one of three
// workloads against the program's public entry points, checks every
// output against computations made apart from the program, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// traced run) as one JSON object on its last line of output.
//
//	bash _benchmark/run.sh --workload paper-dorms --seed 1 --seconds 20 --trace 0
//	bash _benchmark/run.sh --steady 10 --seconds 20
//
// See _benchmark/README.md for the workloads, metrics and reference runs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark workload: a set-up that builds the system
// under test from seed-generated inputs, and rounds of whole operations
// against it. Every round attempts the same operations, so a run's
// failed share does not depend on how many rounds it fits.
type workload interface {
	// setup builds a fresh system under test. The runner calls it
	// several times and reports the median time.
	setup(tr *tracer) error
	// close releases the system under test without checking it. The
	// runner calls it between set-ups, untimed, so that set-up time
	// holds no teardown of the previous system.
	close() error
	// round runs one round of operations. It records each call's
	// latency in lat and returns the operations
	// attempted and failed. tr is nil in untimed and untraced rounds.
	round(tr *tracer, lat *latHist) (ops, failed int, err error)
	// check verifies the outputs of the round just run; it is not timed.
	check() error
	// finish runs the end-of-run checks and releases the system.
	finish() error
	// beginTraced and endTraced read the program's counters around a
	// traced round. The runner calls them outside the timed window, so
	// that reading them does not count as tracing overhead.
	beginTraced()
	endTraced()
	// layers derives the per-layer metrics from the spans and counters
	// gathered during traced rounds.
	layers(spans []span) map[string]metric
}

// extraRounder is a workload with a second kind of traced round that the
// per-layer metrics need (fleet-hourly's direct-call replay).
type extraRounder interface {
	extraRound(tr *tracer) (ops int, err error)
}

// env is what every workload shares: the seed, the scratch directory and
// the load limits.
type env struct {
	seed    uint64
	scratch string // private directory under the checkout's .bench_build
	nproc   int
	tiny    bool // the tests' sizes: a few tenants, the six-rule Flat
}

var workloadNames = []string{"paper-dorms", "fleet-hourly", "relay-mix"}

func newWorkload(name string, e env) (workload, error) {
	switch {
	case name == "paper-dorms" && e.tiny:
		return newDorms(e, dormsTiny()), nil
	case name == "paper-dorms":
		return newDorms(e, dormsFull()), nil
	case name == "fleet-hourly" && e.tiny:
		return newFleet(e, fleetTiny()), nil
	case name == "fleet-hourly":
		return newFleet(e, fleetFull()), nil
	case name == "relay-mix" && e.tiny:
		return newRelay(e, relayTiny()), nil
	case name == "relay-mix":
		return newRelay(e, relayFull()), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func knownWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// Each run builds its system under test at least minSetups times and
// until the set-ups have taken setupSeconds (at most maxSetups times);
// setup_s is the median.
const (
	minSetups    = 3
	maxSetups    = 50
	setupSeconds = 1.0
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 20, "measured seconds per run (shared by the workloads in a traced run)")
		traced  = flag.Int("trace", 0, "1 runs the traced pass of every workload and prints the per-layer metrics")
		steady  = flag.Int("steady", 0, "run every workload this many times, alternating their order, and print each metric's median, quartiles and spread")
		root    = flag.String("root", ".", "checkout root; artifacts go under <root>/.bench_build")
	)
	flag.Parse()
	if *steady == 0 {
		watchdog(runLimit)
	}
	if err := run(os.Stdout, *root, *name, *seed, *seconds, *traced == 1, *steady); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runLimit bounds one run. A run that has not ended by then is stuck:
// the watchdog prints every goroutine's stack and exits non-zero.
const runLimit = 170 * time.Second

func watchdog(limit time.Duration) {
	time.AfterFunc(limit, func() {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "benchmark: run exceeded %v; goroutines:\n%s\n", limit, buf[:n])
		os.Exit(3)
	})
}

// procsFor is the GOMAXPROCS a workload runs at: nproc for paper-dorms,
// whose replay is sequential and whose set-up fans out over nproc
// workers, and 1 for fleet-hourly and relay-mix. At two procs on a
// 2-vCPU host their timings moved with the CPU steal on either vCPU:
// fleet-hourly's Cycle time by 15–22% between runs against 5% at one,
// relay-mix's throughput by 20–29% against 12–18%. The fleet still fans
// out over nproc workers and relay-mix still has nproc clients.
func procsFor(name string) int {
	if name == "fleet-hourly" || name == "relay-mix" {
		return 1
	}
	return runtime.NumCPU()
}

func run(out io.Writer, root, name string, seed uint64, seconds float64, traced bool, steady int) error {
	runtime.GOMAXPROCS(procsFor(name))
	build := filepath.Join(root, ".bench_build")
	if steady > 0 {
		return runSteady(out, root, build, seed, seconds, steady)
	}
	if !knownWorkload(name) {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	scratch := filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	e := env{seed: seed, scratch: scratch, nproc: runtime.NumCPU()}

	printHeader(out, root, name, seed, seconds, traced)
	var res result
	var err error
	if traced {
		res, err = runTraced(out, build, name, e, seconds)
	} else {
		res, err = runUntraced(out, name, e, seconds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return errors.New("output checks failed (see above)")
	}
	return nil
}

// printHeader prints the run's environment: every result is read
// against it.
func printHeader(out io.Writer, root, name string, seed uint64, seconds float64, traced bool) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	h := map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"gogc":       gogc,
		"commit":     commitOf(root),
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
	b, _ := json.Marshal(h) //nolint:errcheck // plain map of strings and numbers
	fmt.Fprintf(out, "# env %s\n", b)
}

// commitOf names the checkout's commit: IMCF_COMMIT when set, else the
// git HEAD when root is a git work tree, else "unknown".
func commitOf(root string) string {
	if c := os.Getenv("IMCF_COMMIT"); c != "" {
		return c
	}
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

// phase accumulates the timed part of a run.
type phase struct {
	wall, cpu time.Duration
	alloc     uint64 // bytes
	mallocs   uint64
	ops       int64
	lat       latHist
}

// timedRound runs one round and folds its cost into p. Only the round
// itself is timed; its checks run after.
func timedRound(w workload, tr *tracer, p *phase) (ops, failed int, err error) {
	m0 := readMem()
	c0 := cpuTime()
	t0 := time.Now()
	ops, failed, err = w.round(tr, &p.lat)
	p.wall += time.Since(t0)
	p.cpu += cpuTime() - c0
	m1 := readMem()
	p.alloc += m1.totalAlloc - m0.totalAlloc
	p.mallocs += m1.mallocs - m0.mallocs
	p.ops += int64(ops)
	return ops, failed, err
}

// timingsPrefix starts the line that carries a run's unbounded timings,
// for --steady to summarise beside the bounded metrics.
const timingsPrefix = "# timings "

// heapRound is the timed round after which the live heap is read. Every
// run reaches it, so the heap is read at the same point of the workload
// however fast the run goes.
const heapRound = 4

// runUntraced is the measured run: set-ups, one untimed warm-up round,
// then whole rounds until the timed phase reaches seconds.
func runUntraced(out io.Writer, name string, e env, seconds float64) (result, error) {
	w, err := newWorkload(name, e)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	var setups []float64
	for total := 0.0; len(setups) < minSetups || (total < setupSeconds && len(setups) < maxSetups); {
		if len(setups) > 0 {
			if err := w.close(); err != nil {
				return res, fmt.Errorf("%s close after set-up: %w", name, err)
			}
			runtime.GC() // every set-up starts from a collected heap
		}
		t0 := time.Now()
		if err := w.setup(nil); err != nil {
			return res, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[len(setups)-1]
	}
	fail := func(stage string, err error) {
		res.Correct = false
		fmt.Fprintf(out, "# CHECK FAILED %s %s: %v\n", name, stage, err)
	}

	var warm latHist
	ops, failed, err := w.round(nil, &warm)
	if err != nil {
		return res, fmt.Errorf("%s warm-up round: %w", name, err)
	}
	res.Attempted += int64(ops)
	res.Failed += int64(failed)
	if err := w.check(); err != nil {
		fail("warm-up round", err)
	}

	var p phase
	var heap uint64
	start := time.Now()
	for rounds := 0; rounds < heapRound || p.wall.Seconds() < seconds; rounds++ {
		if rounds >= heapRound && time.Since(start).Seconds() > 3*seconds+30 {
			break // checks are slower than the rounds; stop at whole rounds
		}
		ops, failed, err := timedRound(w, nil, &p)
		if err != nil {
			return res, fmt.Errorf("%s round %d: %w", name, rounds, err)
		}
		res.Attempted += int64(ops)
		res.Failed += int64(failed)
		if err := w.check(); err != nil {
			fail(fmt.Sprintf("round %d", rounds), err)
		}
		if rounds+1 == heapRound {
			heap = liveHeap()
		}
	}
	if err := w.finish(); err != nil {
		fail("end of run", err)
	}

	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["alloc_kb_per_op"] = metric{float64(p.alloc) / 1024 / float64(p.ops), "KiB"}
	res.Metrics["allocs_per_op"] = metric{float64(p.mallocs) / float64(p.ops), "count"}
	res.Metrics["live_heap_mb"] = metric{float64(heap) / (1 << 20), "MiB"}

	// Printed, not bounded: within ten-run sets on a shared 2-vCPU host
	// their quartiles lay up to a third of the median apart, wider than
	// the largest bound allowed (see README.md, "Sources of spread").
	timings := map[string]metric{
		"throughput_per_s": {float64(p.ops) / p.wall.Seconds(), "1/s"},
		"call_p50_ms":      {p.lat.quantile(0.5), "ms"},
		"cpu_us_per_op":    {float64(p.cpu.Nanoseconds()) / 1e3 / float64(p.ops), "us"},
	}

	fmt.Fprintf(out, "# %s: %d ops attempted, %d failed; timed %.2fs over %d ops in %d calls; %d set-ups\n",
		name, res.Attempted, res.Failed, p.wall.Seconds(), p.ops, p.lat.n, len(setups))
	printLatency(out, "call latency", &p.lat)
	if r, ok := w.(interface{ report(io.Writer) }); ok {
		r.report(out)
	}
	printMetrics(out, timings)
	printMetrics(out, res.Metrics)
	b, err := json.Marshal(timings)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(out, "%s%s\n", timingsPrefix, b)
	return res, nil
}

// printLatency prints a median and, when the samples allow one, a p99,
// with the sample count behind them.
func printLatency(out io.Writer, what string, h *latHist) {
	if tailOK(h.n, 0.99) {
		fmt.Fprintf(out, "# %s: p50 %.4f ms, p99 %.4f ms (%d samples)\n", what, h.quantile(0.5), h.quantile(0.99), h.n)
	} else {
		fmt.Fprintf(out, "# %s: p50 %.4f ms (%d samples; too few for a p99)\n", what, h.quantile(0.5), h.n)
	}
}

// printMetrics prints one line per metric, sorted by name.
func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "# %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
