// Command benchmark is the repository's end-to-end benchmark: six
// workloads that drive the gathering system from the n = 10 FSYNC map
// to HTTP verdict serving, each checked for correct output.
//
//	go run -C benchmark . [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE]
//	go run -C benchmark . compare [-config BENCHMARK.json] PARENT CHANGE PARENT CHANGE ...
//
// An untraced run (-trace 0) measures the end-to-end metrics; a traced
// run (-trace 1) times each layer from the benchmark's side of its
// public calls and reports the per-layer metrics. Standard output holds
// one "name value unit" line per metric and ends with one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A wrong result or a
// failed operation exits 1 without that line, so "failed" is always 0.
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/debug"
	"sort"
	"time"
)

// workers is the number of goroutines that do a workload's work: nproc
// on the 2-core machine the bounds were calibrated on. It is fixed, not
// read from the machine, so that runs on different machines do the
// same work.
const workers = 2

// size scales the workloads: fullSize is the benchmark, smokeSize the
// reduced run the package test makes.
type size struct {
	fsyncN, ssyncN, advN, distN int
	// minReps is the least number of timed reps a run makes.
	minReps int
	// An untraced run sets up at least setupReps times and until
	// setupFor has passed, at most maxSetups times; setup_s is the
	// median.
	setupReps, maxSetups int
	setupFor             time.Duration
	// warmup is the untimed phase before verdict-serve's timed one;
	// probe is one step of its traced run's max_rps search.
	warmup, probe time.Duration
	probeSteps    int
}

var (
	fullSize = size{
		fsyncN: 10, ssyncN: 7, advN: 7, distN: 9,
		minReps: 3, setupReps: 3, maxSetups: 20, setupFor: 2 * time.Second,
		warmup: time.Second, probe: 1500 * time.Millisecond, probeSteps: 5,
	}
	smokeSize = size{
		fsyncN: 8, ssyncN: 6, advN: 6, distN: 8,
		minReps: 1, setupReps: 1, maxSetups: 1,
		warmup: 100 * time.Millisecond, probe: 300 * time.Millisecond, probeSteps: 1,
	}
)

// setUp runs a workload's set-up as the size asks, once for a traced
// run, releasing all but the last result; it returns that result and
// every set-up's time in seconds.
func setUp[T any](e *env, l *lane, setup func(*env, *lane) (T, error), release func(T)) (T, []float64, error) {
	var last T
	var times []float64
	start := time.Now()
	for {
		if len(times) > 0 {
			release(last)
		}
		// Each set-up starts from a collected heap whose free pages went
		// back to the system, as in a fresh process, so that neither its
		// time nor the run's peak memory depends on the earlier ones.
		debug.FreeOSMemory()
		t := time.Now()
		var err error
		if last, err = setup(e, l); err != nil {
			return last, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
		enough := len(times) >= e.size.setupReps &&
			(time.Since(start) >= e.size.setupFor || len(times) >= e.size.maxSetups)
		if e.trace || enough {
			return last, times, nil
		}
	}
}

// env is what one workload run is given.
type env struct {
	ctx    context.Context
	seed   int64
	window time.Duration // how long the timed part measures
	trace  bool
	spans  string // where a traced run writes its spans; "" keeps them in memory only
	work   string // scratch directory
	size   size
}

// outcome is one workload run's result. It has no failure count: an
// operation that fails fails the run, which then exits without a result.
type outcome struct {
	attempted int64
	metrics   map[string]float64
	notes     []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"fsync-n10-cold", runSweep(setupFSYNC(false))},
	{"fsync-n10-warm", runSweep(setupFSYNC(true))},
	{"ssync-n7-seeds", runSweep(setupSSYNC)},
	{"adversary-n7", runSweep(setupAdversary)},
	{"dist-n9-fleet", runSweep(setupFleet)},
	{"verdict-serve", runVerdict(setupVerdict)},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			os.Exit(2)
		}
		return
	}
	name := flag.String("workload", "all", "workload to run, or all (each in its own process)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 10, "how long the timed part of a run measures")
	trace := flag.Int("trace", 0, "1 makes a traced run that reports the per-layer metrics")
	spans := flag.String("spans", "", "with -trace 1, write the spans to this JSONL file")
	work := flag.String("work", ".bench_build/work", "scratch directory for checkpoints and index files")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll())
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	e := &env{
		ctx:    context.Background(),
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		spans:  *spans,
		work:   *work,
		size:   fullSize,
	}
	fmt.Printf("# workload %s seed %d trace %d seconds %g\n", w.name, e.seed, *trace, *seconds)
	o, err := w.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := writeResult(os.Stdout, e.trace, o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runAll runs every workload, each in a child process of its own, so
// that set-up and peak memory are measured per workload.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeResult prints every reported metric by name with its unit, the
// run's notes, and last the JSON result line. The metric set is fixed
// per mode: the end-to-end metrics untraced, the per-layer ones traced.
func writeResult(w io.Writer, traced bool, o *outcome) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: true, Attempted: o.attempted, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: o.metrics[d.name], Unit: d.unit}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %v %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range o.notes {
		fmt.Fprintln(w, "#", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
