// Package sweep is the unified streaming sweep engine: one Spec
// describes "run an algorithm from every initial pattern under a
// scheduler and aggregate outcomes" — the shape of every evaluation in
// the paper and of every extension experiment — and one executor runs
// it with constant memory, deterministic aggregation, and context
// cancellation.
//
// The three historically incompatible entry points all reduce to a
// Spec:
//
//   - the Theorem 2 FSYNC exhaustive sweep is Spec{N: 7} (the zero
//     Spec),
//   - the SSYNC robustness experiment (E8/E12) is Spec{Scheduler:
//     SSYNC, Seeds: SeedRange(1, 32)} — every pattern runs once per
//     seeded activation schedule and the Report aggregates per-pattern
//     robustness (gathered in k of m schedules),
//   - the relaxed-connectivity sweep (E9) is Spec{Source:
//     ConnectedWithin(7, 2)} over the ≈2.6 M-pattern range-2 space.
//
// Execution is streaming: Stream delivers every CaseResult to a visitor
// in source order (independent of worker count) and retains none of
// them unless Spec.KeepCases is set, so beyond the Source's own storage
// (ConnectedWithin streams its generation; Connected materializes its
// enumeration) a sweep holds O(Workers) configurations regardless of
// sweep size. Failures carry a
// Classify taxonomy (status × initial-diameter bucket) toward the §V
// open problem of characterizing where the seven-robot construction
// stops carrying.
package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/adversary"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Spec describes one sweep: which patterns, which algorithm, which
// scheduler, and how to execute. The zero value (with defaults filled
// by Run/Stream) is the paper's Theorem 2 sweep: the full Gatherer
// over every connected 7-robot pattern under FSYNC.
type Spec struct {
	// N is the robot count; it selects the default Source and is
	// recorded in the Report. Default 7, the paper's case.
	N int
	// Alg is the algorithm under test. Default core.Gatherer{}.
	Alg core.Algorithm
	// Scheduler builds the activation scheduler for one run from its
	// seed. Nil selects FSYNC (the paper's model), which runs on
	// sim.Run's allocation-free fast path. Non-nil runs go through
	// sched.Run; the factory is called once per (pattern, seed) run, so
	// stateful schedulers (SSYNC's seeded random subsets) are
	// reconstructed identically regardless of worker scheduling.
	Scheduler func(seed int64) sched.Scheduler
	// Seeds lists the activation schedules each pattern is run under —
	// the robustness axis of the SSYNC experiments. Each pattern runs
	// len(Seeds) times, once per seed, and the Report aggregates
	// per-pattern robustness (gathered in k of len(Seeds) schedules).
	// Empty means one run per pattern with seed 0. Deterministic
	// schedulers (FSYNC, CENT) ignore the seed value.
	Seeds []int64
	// Goal overrides the success predicate handed to every run. Nil
	// selects config.GoalFor over each pattern's robot count: the
	// paper's hexagon at n = 7, minimum diameter elsewhere.
	Goal func(config.Config) bool
	// Source yields the initial patterns. Nil selects Connected(N).
	Source Source
	// MaxRounds bounds each run (default sim.DefaultMaxRounds).
	MaxRounds int
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// Cache, when non-nil, memoizes the algorithm's Compute decisions
	// in this shared view→move cache (core.Memoize), warm across
	// several sweeps handed the same cache.
	Cache *core.Memo
	// OutcomeMemo, when non-nil, is the shared configuration→outcome
	// store (internal/memo) threaded into every run: the sweep becomes
	// one deduplicated traversal of the configuration graph — each
	// shared trajectory suffix is walked once and spliced everywhere
	// else — with Status/Rounds/Moves and therefore the whole Report
	// bit-identical to the unmemoized sweep at every worker count (the
	// equivalence tests check this exhaustively). Nil leaves
	// memoization off and the direct loops in charge.
	//
	// Scoping is the caller's contract (the store cannot detect
	// misuse): one store per (algorithm, goal) pair, and additionally
	// per periodic scheduler for CENT-style sweeps — FSYNC sweeps and
	// non-periodic (SSYNC/random) sweeps of the same algorithm may
	// share one store, which is how a robustness sweep reuses the
	// exhaustive sweep's stall facts. Handing the same warm store to
	// several compatible sweeps carries the whole graph across them.
	OutcomeMemo *memo.Outcomes
	// KeepCases retains every CaseResult in Report.Cases. Off by
	// default: a sweep then holds O(Workers) configurations total,
	// which is what makes the ≈2.6 M-pattern relaxed space sweepable.
	KeepCases bool
	// Progress, when non-nil, is called after every in-order delivered
	// case with the number of runs completed and the total. It is
	// called from the aggregation goroutine, in order, never
	// concurrently.
	Progress func(done, total int)
	// Metrics, when non-nil, receives the sweep's throughput series:
	// sweep_runs_total counts delivered runs, sweep_pending_high_water
	// tracks the reorder-buffer high-water mark (the dispatch window's
	// constant-memory claim, live). Purely observational — reports are
	// bit-identical with or without it.
	Metrics *metrics.Registry
	// Adversary switches the sweep from scheduler runs to exact
	// adversarial decision (experiments E13/E14): each pattern is
	// decided by internal/adversary's memoized safety-game solver, and
	// the CaseResult carries the Verdict (defeatable with a verified
	// witness schedule, or safe). Scheduler, Seeds and MaxRounds are
	// ignored (the adversary is universally quantified over schedules).
	// Workers applies: when it is 1 or unset, decisions run
	// single-threaded in source order, which keeps the per-pattern
	// state counts deterministic; when it is larger, patterns decide in
	// parallel over one concurrent solver memo — verdicts, witnesses
	// and the report are bit-identical to the sequential run (the
	// memo counts distinct states, so SolverStates agrees too), and
	// only the per-pattern state counts depend on scheduling (the whole
	// n = 8 space decides in about a second this way). Alg and Goal
	// default from the Spec when unset in the Options.
	Adversary *adversary.Options
}

// CaseResult records one run's outcome: one initial pattern under one
// activation schedule.
type CaseResult struct {
	// Index is the global run index: Pattern*len(Seeds) + seed
	// position. Stream delivers cases in increasing Index order.
	Index int
	// Pattern is the pattern's index in Source order.
	Pattern int
	// Initial is the starting configuration.
	Initial config.Config
	// Seed is the activation-schedule seed of this run.
	Seed   int64
	Status sim.Status
	Rounds int
	Moves  int
	// Class is the failure taxonomy entry (status × initial-diameter
	// bucket); meaningful for failed runs, zero-diameter-bucket
	// Gathered otherwise.
	Class Class
	// Verdict is the adversarial decision for this pattern; non-nil
	// exactly in adversary-mode sweeps (Spec.Adversary). Status then
	// reflects the verdict: the witness kind's status for defeatable
	// patterns (a forced cycle is a Livelock; collision, disconnection
	// and stall are themselves) and Gathered for safe ones.
	Verdict *adversary.Verdict
}

// Report aggregates a sweep. All aggregation happens in source order on
// a single goroutine, so reports are bit-identical across worker
// counts.
type Report struct {
	Algorithm string `json:"algorithm"`
	Scheduler string `json:"scheduler"`
	Robots    int    `json:"robots"`
	Source    string `json:"source"`
	// Patterns is the number of distinct initial patterns; Schedules
	// the number of runs per pattern (len(Spec.Seeds), 1 minimum);
	// Total their product.
	Patterns  int `json:"patterns"`
	Schedules int `json:"schedules"`
	Total     int `json:"total"`
	// ByStatus counts outcomes per status over all runs.
	ByStatus map[sim.Status]int `json:"by_status"`
	// ByClass counts failed runs per taxonomy class.
	ByClass map[Class]int `json:"by_class,omitempty"`
	// MaxRounds / MeanRounds / MaxMoves / MeanMoves are over gathered
	// runs — except in adversary mode, where safe verdicts involve no
	// run and the aggregates describe the witness replays instead.
	MaxRounds  int     `json:"max_rounds"`
	MeanRounds float64 `json:"mean_rounds"`
	MaxMoves   int     `json:"max_moves"`
	MeanMoves  float64 `json:"mean_moves"`
	// Robust is the robustness histogram: Robust[k] counts the patterns
	// that gathered in exactly k of the Schedules runs. For a
	// single-schedule sweep it degenerates to {failed, gathered}.
	Robust []int `json:"robust"`
	// Adversary-mode aggregation (Spec.Adversary), zero otherwise:
	// Defeatable / SafePatterns / Undecided partition the patterns by
	// verdict (Undecided is always 0 now that every pattern is decided
	// exactly), ByMethod counts what decided them ("solver", the only
	// method), SolverStates is the total size
	// of the explored game graph (shared memo: later patterns reuse
	// earlier patterns' states), and MaxWitnessDepth is the longest
	// winning strategy found (prefix + one cycle lap).
	Defeatable      int            `json:"defeatable,omitempty"`
	SafePatterns    int            `json:"safe,omitempty"`
	Undecided       int            `json:"undecided,omitempty"`
	ByMethod        map[string]int `json:"by_method,omitempty"`
	SolverStates    int            `json:"solver_states,omitempty"`
	MaxWitnessDepth int            `json:"max_witness_depth,omitempty"`
	// PeakPending is the high-water mark of the in-order delivery
	// buffer — the number of configurations the engine held at once
	// beyond the workers' own. The dispatch window bounds it at
	// 4 × Workers, which is the constant-memory claim; the tests assert
	// it. It is a scheduling-dependent diagnostic, not a result, so it
	// is excluded from JSON to keep serialized reports bit-identical
	// across runs and worker counts.
	PeakPending int `json:"-"`
	// Memo is the outcome store's counter deltas over this sweep (zero
	// without Spec.OutcomeMemo): how many store consultations hit, how
	// many missed, and how many distinct configuration outcomes the
	// sweep added. Like PeakPending they are scheduling-dependent
	// diagnostics (which worker walks a shared suffix first is a race
	// the results are proof against), so they are excluded from JSON to
	// keep serialized reports bit-identical across runs and worker
	// counts.
	Memo memo.Stats `json:"-"`
	// Cases lists per-run results in Index order when Spec.KeepCases
	// was set; nil otherwise. Excluded from JSON — stream them with
	// Stream instead of retaining.
	Cases []CaseResult `json:"-"`
}

// Gathered returns the number of runs that gathered.
func (r *Report) Gathered() int { return r.ByStatus[sim.Gathered] }

// AllGathered reports whether every run gathered — for the FSYNC n = 7
// sweep, the paper's Theorem 2 claim.
func (r *Report) AllGathered() bool { return r.Gathered() == r.Total }

// FullyRobust returns the number of patterns that gathered under every
// schedule.
func (r *Report) FullyRobust() int {
	if len(r.Robust) == 0 {
		return 0
	}
	return r.Robust[len(r.Robust)-1]
}

// Failures returns the retained cases that did not gather (empty unless
// the sweep kept cases).
func (r *Report) Failures() []CaseResult {
	var out []CaseResult
	for _, c := range r.Cases {
		if c.Status != sim.Gathered {
			out = append(out, c)
		}
	}
	return out
}

// String renders the report summary: the outcome table, plus the
// robustness line for multi-schedule sweeps.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "algorithm %s, n=%d, scheduler %s, source %s: %d/%d gathered",
		r.Algorithm, r.Robots, r.Scheduler, r.Source, r.Gathered(), r.Total)
	if r.Gathered() > 0 && r.ByMethod == nil {
		fmt.Fprintf(&b, " (rounds max %d mean %.1f, moves max %d mean %.1f)",
			r.MaxRounds, r.MeanRounds, r.MaxMoves, r.MeanMoves)
	}
	statuses := make([]sim.Status, 0, len(r.ByStatus))
	for s := range r.ByStatus {
		if s != sim.Gathered {
			statuses = append(statuses, s)
		}
	}
	sort.Slice(statuses, func(i, j int) bool { return statuses[i] < statuses[j] })
	for _, s := range statuses {
		fmt.Fprintf(&b, ", %s %d", s, r.ByStatus[s])
	}
	if r.Schedules > 1 {
		fmt.Fprintf(&b, "; robustness: %d/%d patterns in all %d schedules, %d in none",
			r.FullyRobust(), r.Patterns, r.Schedules, r.Robust[0])
	}
	if r.ByMethod != nil {
		fmt.Fprintf(&b, "; adversary: %d defeatable / %d safe", r.Defeatable, r.SafePatterns)
		fmt.Fprintf(&b, " (game states %d, max strategy depth %d)", r.SolverStates, r.MaxWitnessDepth)
	}
	return b.String()
}

// Print writes the report as the CLIs show it: indented JSON, or the
// summary plus, for multi-schedule sweeps, the robustness histogram.
func (r *Report) Print(w io.Writer, asJSON bool) error {
	if asJSON {
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, string(data))
		return err
	}
	fmt.Fprintln(w, r)
	if r.Schedules > 1 {
		fmt.Fprintln(w, "\nrobustness histogram (patterns by schedules gathered):")
		for k, count := range r.Robust {
			if count > 0 {
				fmt.Fprintf(w, "%4d/%d: %6d\n", k, r.Schedules, count)
			}
		}
	}
	return nil
}

// SSYNC is a Spec.Scheduler factory selecting the seeded random-subset
// SSYNC adversary: each seed replays one activation schedule exactly.
func SSYNC(seed int64) sched.Scheduler { return sched.NewRandomSubset(seed) }

// CENT is a Spec.Scheduler factory for the round-robin centralized
// adversary; the seed is ignored (the schedule is deterministic).
func CENT(int64) sched.Scheduler { return sched.RoundRobin{} }

// SeedRange returns the m seeds base, base+1, …, base+m-1 — the
// conventional seed list of a robustness sweep.
func SeedRange(base int64, m int) []int64 {
	out := make([]int64, m)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// Run executes the sweep and returns the aggregated report. It is
// Stream with no visitor.
func Run(ctx context.Context, spec Spec) (*Report, error) {
	return Stream(ctx, spec, nil)
}

// job is one (pattern, seed) run handed to a worker.
type job struct {
	index   int
	pattern int
	seed    int64
	initial config.Config
}

// Stream executes the sweep, delivering every CaseResult to visit in
// increasing Index order before aggregating it. The visitor runs on the
// aggregation goroutine — never concurrently — and a non-nil error from
// it cancels the sweep and is returned. On context cancellation Stream
// stops dispatching, lets in-flight runs finish, and returns the
// context's error; no goroutines are leaked either way.
//
// Memory is constant in the sweep size: beyond the Source itself,
// Stream holds the workers' in-flight runs plus a bounded reorder
// buffer (Report.PeakPending records its high-water mark), and retains
// no cases unless Spec.KeepCases is set.
func Stream(ctx context.Context, spec Spec, visit func(CaseResult) error) (*Report, error) {
	if spec.N <= 0 {
		spec.N = 7
	}
	if spec.Alg == nil {
		spec.Alg = core.Gatherer{}
	}
	if spec.Source == nil {
		if err := checkN(spec.N); err != nil {
			return nil, err
		}
		spec.Source = Connected(spec.N)
	}
	if spec.Adversary != nil {
		// Adversary mode defaults to the sequential executor (Workers
		// unset), which keeps per-pattern solver state counts
		// deterministic; parallelism is an explicit Workers > 1.
		return streamAdversary(ctx, spec, visit)
	}
	if spec.Workers <= 0 {
		spec.Workers = runtime.GOMAXPROCS(0)
	}
	seeds := spec.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	alg := spec.Alg
	if spec.Cache != nil {
		alg = core.Memoize(alg, spec.Cache)
	}
	schedName := "fsync"
	if spec.Scheduler != nil {
		schedName = spec.Scheduler(seeds[0]).Name()
	}

	m := len(seeds)
	patterns := spec.Source.Count()
	// All aggregation goes through the shared Aggregator — the same
	// arithmetic the distributed coordinator (internal/dist) replays
	// over merged worker streams, so sharded reports are bit-identical
	// to this loop's by construction.
	agg := NewAggregator(Meta{
		Algorithm: alg.Name(),
		Scheduler: schedName,
		Robots:    spec.N,
		Source:    spec.Source.Label(),
		Patterns:  patterns,
		Schedules: m,
	}, spec.KeepCases)
	total := patterns * m

	// Counter snapshots, not absolute values: the store may arrive warm
	// from an earlier sweep, and the Report describes this sweep only.
	var memoBase memo.Stats
	if spec.OutcomeMemo != nil {
		memoBase = spec.OutcomeMemo.Stats()
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The dispatch window is what makes the reorder buffer O(workers):
	// without it a single slow run lets every other worker race
	// arbitrarily far ahead, and the pending map holds the whole gap.
	// The dispatcher takes a token per job, the collector returns it
	// when the case is delivered in order, so completion can outrun
	// delivery by at most the window.
	window := 4 * spec.Workers
	tokens := make(chan struct{}, window)

	jobs := make(chan job, spec.Workers)
	results := make(chan CaseResult, spec.Workers)
	var wg sync.WaitGroup
	for w := 0; w < spec.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One pooled cycle set per worker: a worker's runs are
			// sequential, so reuse is safe and removes the largest
			// per-run allocation.
			var cycles config.PatternSet
			for j := range jobs {
				if ctx.Err() != nil {
					continue // cancelled: drain the queue without running
				}
				opts := sim.Options{
					MaxRounds:        spec.MaxRounds,
					DetectCycles:     true,
					StopOnDisconnect: true,
					Goal:             spec.Goal,
					CycleSet:         &cycles,
					Outcomes:         spec.OutcomeMemo,
				}
				var res sim.Result
				if spec.Scheduler == nil {
					res = sim.Run(alg, j.initial, opts)
				} else {
					res = sched.Run(alg, j.initial, spec.Scheduler(j.seed), opts)
				}
				cr := CaseResult{
					Index:   j.index,
					Pattern: j.pattern,
					Initial: j.initial,
					Seed:    j.seed,
					Status:  res.Status,
					Rounds:  res.Rounds,
					Moves:   res.Moves,
					Class:   Classify(j.initial, res.Status),
				}
				select {
				case results <- cr:
				case <-ctx.Done():
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	go func() {
		defer close(jobs)
		spec.Source.Each(func(i int, c config.Config) bool {
			for si, s := range seeds {
				select {
				case tokens <- struct{}{}:
				case <-ctx.Done():
					return false
				}
				select {
				case jobs <- job{index: i*m + si, pattern: i, seed: s, initial: c}:
				case <-ctx.Done():
					return false
				}
			}
			return true
		})
	}()

	// Single-goroutine in-order aggregation: workers finish out of
	// order, the pending buffer reorders them. Its size is bounded by
	// the number of runs in flight (workers + channel capacities), so
	// memory stays constant however large the sweep.
	pending := make(map[int]CaseResult, spec.Workers)
	next := 0
	peak := 0
	// Nil-safe registry accessors: without Spec.Metrics these resolve
	// to live throwaway metrics, so the loop stays branch-free.
	runsMetric := spec.Metrics.Counter("sweep_runs_total")
	pendingHW := spec.Metrics.Gauge("sweep_pending_high_water")
	var verr error
	for cr := range results {
		if verr != nil || ctx.Err() != nil {
			continue // drain so the workers can exit
		}
		pending[cr.Index] = cr
		if len(pending) > peak {
			peak = len(pending)
			pendingHW.SetMax(int64(peak))
		}
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			<-tokens // return the dispatch-window slot
			runsMetric.Inc()
			agg.Absorb(r)
			if visit != nil {
				if err := visit(r); err != nil {
					verr = err
					cancel()
					break
				}
			}
			if spec.Progress != nil {
				spec.Progress(next, total)
			}
		}
	}
	if verr != nil {
		return nil, verr
	}
	if err := ctx.Err(); err != nil && next < total {
		return nil, err
	}
	report := agg.Finish()
	report.PeakPending = peak
	if spec.OutcomeMemo != nil {
		report.Memo = spec.OutcomeMemo.Stats().Sub(memoBase)
	}
	return report, nil
}

// streamAdversary executes an adversary-mode sweep: one exact decision
// per pattern over one shared solver memo. With Workers unset (or 1)
// the decisions run single-threaded in source order, which keeps the
// per-pattern state counts deterministic; Workers > 1 decides patterns
// in parallel over the solver's concurrent game graph, with the same
// in-order delivery and
// aggregation machinery as the scheduler sweeps. Rounds/Moves of
// defeatable cases come from the verified witness replay, so the usual
// aggregates describe the defeats.
func streamAdversary(ctx context.Context, spec Spec, visit func(CaseResult) error) (*Report, error) {
	if spec.N > adversary.MaxRobots {
		// Fail fast: the default Source would otherwise enumerate an
		// astronomically large space before the first decision could
		// report the envelope error.
		return nil, fmt.Errorf("sweep: adversary mode supports at most %d robots (n=%d)", adversary.MaxRobots, spec.N)
	}
	opts := *spec.Adversary
	if opts.Alg == nil {
		opts.Alg = spec.Alg
	}
	if opts.Goal == nil {
		opts.Goal = spec.Goal
	}
	if spec.Cache != nil {
		// Share the view→move cache like the scheduler paths do; the
		// solver rides ComputePacked, so the memoized wrapper slots
		// straight in.
		opts.Alg = core.Memoize(opts.Alg, spec.Cache)
	}
	adv := adversary.New(opts)
	patterns := spec.Source.Count()
	agg := &verdictAgg{
		spec:  spec,
		visit: visit,
		runs:  spec.Metrics.Counter("sweep_runs_total"),
		report: &Report{
			Algorithm: opts.Alg.Name(),
			Scheduler: "adversary",
			Robots:    spec.N,
			Source:    spec.Source.Label(),
			Patterns:  patterns,
			Schedules: 1,
			Total:     patterns,
			ByStatus:  map[sim.Status]int{},
			ByClass:   map[Class]int{},
			ByMethod:  map[string]int{},
			Robust:    make([]int, 2),
		},
	}

	var cerr error
	if spec.Workers > 1 {
		cerr = runAdversaryParallel(ctx, spec, adv, agg)
	} else {
		spec.Source.Each(func(i int, c config.Config) bool {
			if err := ctx.Err(); err != nil {
				cerr = err
				return false
			}
			verdict, err := adv.Decide(c)
			if err != nil {
				cerr = fmt.Errorf("pattern %d (%s): %w", i, c.Key(), err)
				return false
			}
			if cerr = agg.absorb(verdictCase(i, c, verdict)); cerr != nil {
				return false
			}
			return true
		})
	}
	report := agg.report
	report.SolverStates = adv.StatesExplored()
	report.Memo = adv.MemoStats()
	if cerr != nil {
		return nil, cerr
	}
	if agg.defeats > 0 {
		report.MeanRounds = float64(agg.sumRounds) / float64(agg.defeats)
		report.MeanMoves = float64(agg.sumMoves) / float64(agg.defeats)
	}
	return report, nil
}

// verdictCase maps one decided pattern onto the sweep's case currency:
// the witness kind's status for defeatable patterns (a forced cycle is
// a livelock however its bounded replay ends — rounds/moves describe
// the verified replay) and Gathered for safe ones.
func verdictCase(i int, c config.Config, verdict adversary.Verdict) CaseResult {
	cr := CaseResult{Index: i, Pattern: i, Initial: c, Verdict: &verdict}
	switch verdict.Kind {
	case adversary.Safe:
		cr.Status = sim.Gathered
	case adversary.Defeatable:
		cr.Status = verdict.Witness.Status()
		cr.Rounds = verdict.ReplayRounds
		cr.Moves = verdict.ReplayMoves
	}
	cr.Class = Classify(c, cr.Status)
	return cr
}

// verdictAgg aggregates in-order delivered adversary cases — shared by
// the sequential and parallel executors, so worker count cannot change
// what a report means.
type verdictAgg struct {
	spec                         Spec
	report                       *Report
	visit                        func(CaseResult) error
	runs                         *metrics.Counter
	defeats, sumRounds, sumMoves int
}

func (a *verdictAgg) absorb(cr CaseResult) error {
	a.runs.Inc()
	report := a.report
	switch cr.Verdict.Kind {
	case adversary.Safe:
		report.SafePatterns++
	case adversary.Defeatable:
		report.Defeatable++
		if cr.Verdict.Depth > report.MaxWitnessDepth {
			report.MaxWitnessDepth = cr.Verdict.Depth
		}
	}
	report.ByMethod[cr.Verdict.Method]++
	report.ByStatus[cr.Status]++
	if cr.Status == sim.Gathered {
		report.Robust[1]++
	} else {
		report.Robust[0]++
		report.ByClass[cr.Class]++
	}
	// The rounds/moves aggregates describe the witness replays, so
	// only defeats (which have a replay) contribute.
	if cr.Verdict.Kind == adversary.Defeatable {
		a.defeats++
		a.sumRounds += cr.Rounds
		a.sumMoves += cr.Moves
		if cr.Rounds > report.MaxRounds {
			report.MaxRounds = cr.Rounds
		}
		if cr.Moves > report.MaxMoves {
			report.MaxMoves = cr.Moves
		}
	}
	if a.spec.KeepCases {
		report.Cases = append(report.Cases, cr)
	}
	if a.visit != nil {
		if err := a.visit(cr); err != nil {
			return err
		}
	}
	if a.spec.Progress != nil {
		a.spec.Progress(cr.Index+1, report.Total)
	}
	return nil
}

// runAdversaryParallel is the pattern-parallel adversary executor: the
// dispatcher streams patterns through a bounded window, every worker
// decides on the one Adversary (its solver memo is concurrent), and
// the collector reorders completions so absorption — and therefore the
// report, the visitor stream, and every witness — is identical to the
// sequential executor's. Only the
// per-pattern solver state counts (Verdict.States) depend on
// scheduling: they say which worker reached a shared state first.
func runAdversaryParallel(ctx context.Context, spec Spec, adv *adversary.Adversary, agg *verdictAgg) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	window := 4 * spec.Workers
	tokens := make(chan struct{}, window)
	jobs := make(chan job, spec.Workers)

	type outcome struct {
		cr  CaseResult
		err error
	}
	results := make(chan outcome, spec.Workers)
	var wg sync.WaitGroup
	for w := 0; w < spec.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					continue // cancelled: drain the queue without deciding
				}
				var out outcome
				verdict, err := adv.Decide(j.initial)
				if err != nil {
					out.err = fmt.Errorf("pattern %d (%s): %w", j.pattern, j.initial.Key(), err)
					out.cr.Index = j.index
				} else {
					out.cr = verdictCase(j.pattern, j.initial, verdict)
				}
				select {
				case results <- out:
				case <-ctx.Done():
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	go func() {
		defer close(jobs)
		spec.Source.Each(func(i int, c config.Config) bool {
			select {
			case tokens <- struct{}{}:
			case <-ctx.Done():
				return false
			}
			select {
			case jobs <- job{index: i, pattern: i, initial: c}:
			case <-ctx.Done():
				return false
			}
			return true
		})
	}()

	pending := make(map[int]outcome, spec.Workers)
	next := 0
	var cerr error
	for out := range results {
		if cerr != nil || ctx.Err() != nil {
			continue // drain so the workers can exit
		}
		pending[out.cr.Index] = out
		if len(pending) > agg.report.PeakPending {
			agg.report.PeakPending = len(pending)
		}
		for {
			o, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			<-tokens
			if o.err != nil {
				cerr = o.err
				cancel()
				break
			}
			if err := agg.absorb(o.cr); err != nil {
				cerr = err
				cancel()
				break
			}
		}
	}
	if cerr != nil {
		return cerr
	}
	if err := ctx.Err(); err != nil && next < agg.report.Total {
		return err
	}
	return nil
}
