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
//   - the relaxed-connectivity sweep (E9/E16) is Spec{Source:
//     ConnectedWithin(7, 2)} over the ≈2.7 M-pattern range-2 space.
//
// Execution is streaming: Stream delivers every CaseResult to a visitor
// in source order (independent of worker count) and retains none of
// them unless Spec.KeepCases is set. Runs travel between the dispatcher,
// the workers and the in-order collector in batches of 16, at most
// 4 × Workers batches at a time, so beyond the Source's own storage
// (ConnectedWithin streams from the search and holds nothing;
// Connected materializes its enumeration) a sweep holds O(Workers)
// batches of configurations regardless of sweep size. Adversary-mode sweeps run on the same
// executor and aggregator. Failures carry a
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
	// Scheduler builds the activation scheduler of one seed. Nil
	// selects sched.FSYNC (the paper's model). Every run goes through
	// sched.Run, the one run loop. Each worker calls the factory once per
	// seed, the first time it runs that seed, and hands the value to
	// every run of that seed: sched.Scheduler.Select is a function of
	// (n, round) for a given value, so a reused value gives each run
	// the schedule a fresh one would (SSYNC's seeded random subsets
	// record their draws and replay them), whichever worker runs it.
	// A factory must therefore return values that keep that contract.
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
	// default: a sweep then holds O(Workers) batches of configurations
	// total, which is what makes the ≈2.6 M-pattern relaxed space
	// sweepable.
	KeepCases bool
	// Progress, when non-nil, is called after every in-order delivered
	// case with the number of runs completed and the total. It is
	// called from the aggregation goroutine, in order, never
	// concurrently.
	Progress func(done, total int)
	// Metrics, when non-nil, receives the sweep's throughput series,
	// in every mode: sweep_runs_total counts delivered runs,
	// sweep_pending_high_water tracks the reorder buffer's high-water
	// mark in batches (the dispatch window's constant-memory claim,
	// live: at most 4 × Workers batches). Purely observational —
	// reports are bit-identical with or without it.
	Metrics *metrics.Registry
	// Adversary switches the sweep from scheduler runs to exact
	// adversarial decision (experiments E13/E14): each pattern is
	// decided by internal/adversary's memoized safety-game solver, and
	// the CaseResult carries the Verdict (defeatable with a verified
	// witness schedule, or safe). Scheduler, Seeds and MaxRounds are
	// ignored (the adversary is universally quantified over schedules).
	// Workers applies, but defaults to 1 here: one worker decides in
	// source order, which keeps the per-pattern state counts
	// deterministic; with more, patterns decide in parallel over one
	// concurrent solver memo — verdicts, witnesses and the report are
	// bit-identical to the one-worker run (the memo counts distinct
	// states, so SolverStates agrees too), and only the per-pattern
	// state counts depend on scheduling (the whole n = 8 space decides
	// in about a second this way). Alg and Goal default from the Spec
	// when unset in the Options.
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
	// buffer, in batches of up to 16 runs: how many completed batches
	// the engine held at once waiting for an earlier one. The dispatch
	// window bounds it at 4 × Workers batches (64 × Workers runs),
	// which is the constant-memory claim; the tests assert it. It is a
	// scheduling-dependent diagnostic, not a result, so it is excluded
	// from JSON to keep serialized reports bit-identical across runs
	// and worker counts.
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

// MaxSeeds is the most activation schedules per pattern a sweep
// descriptor or cmd/verify accepts: 32× E12's 32, the largest any
// experiment uses. SeedRange materializes the seed list, so an
// unbounded count would be an unbounded allocation.
const MaxSeeds = 1024

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

// batchSize is the number of consecutive runs that travel between the
// dispatcher, a worker and the collector as one unit: one channel
// receive and one send move sixteen runs, where a run of the n = 10
// FSYNC sweep takes about 5 µs. Measured on 2 vCPUs, 16 swept n = 10
// as fast as 64 and faster than 4, while 64 raised the peak RSS of
// the eight-seed SSYNC n = 7 sweep by about a fifth.
const batchSize = 16

// batch is a contiguous slice of the sweep's runs: cases[k] is run
// seq*batchSize + k. The dispatcher fills in each case's Index,
// Pattern, Initial and Seed, and a worker completes the rest in place.
type batch struct {
	seq   int
	cases []CaseResult
	// err is the step error that ended the batch early; cases then
	// holds only the runs before the failing one.
	err error
}

// plan is what one kind of sweep hands the executor: the report's
// header, the seeds each pattern runs under, a per-worker step that
// completes one case in place, and a hook that adds the sweep's
// diagnostics to the finished report.
type plan struct {
	meta    Meta
	seeds   []int64
	newStep func() func(*CaseResult) error
	finish  func(*Report)
}

// Stream executes the sweep, delivering every CaseResult to visit in
// increasing Index order right after aggregating it. The visitor runs
// on the aggregation goroutine — never concurrently — and a non-nil
// error from it cancels the sweep and is returned; no later case is
// aggregated or delivered. On context cancellation Stream stops
// dispatching, lets in-flight batches finish, and returns the
// context's error; no goroutines are leaked either way.
//
// Memory is constant in the sweep size: beyond the Source itself,
// Stream holds at most 4 × Workers batches of runs — in the workers'
// hands, queued, or in the reorder buffer (Report.PeakPending records
// the buffer's high-water mark) — and retains no cases unless
// Spec.KeepCases is set.
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
	var p plan
	if spec.Adversary != nil {
		if spec.N > adversary.MaxRobots {
			// Fail fast: the default Source would otherwise enumerate an
			// astronomically large space before the first decision could
			// report the envelope error.
			return nil, fmt.Errorf("sweep: adversary mode supports at most %d robots (n=%d)", adversary.MaxRobots, spec.N)
		}
		// Adversary mode defaults to one worker, which keeps the
		// per-pattern solver state counts deterministic; parallelism is
		// an explicit Workers > 1.
		if spec.Workers <= 0 {
			spec.Workers = 1
		}
		p = adversaryPlan(spec)
	} else {
		if spec.Workers <= 0 {
			spec.Workers = runtime.GOMAXPROCS(0)
		}
		p = runPlan(spec)
	}
	// All aggregation goes through the shared Aggregator — the same
	// arithmetic the distributed coordinator (internal/dist) replays
	// over merged worker streams, so sharded reports are bit-identical
	// to this loop's by construction.
	agg := NewAggregator(p.meta, spec.KeepCases)
	peak, err := execute(ctx, spec, p, agg, visit)
	if err != nil {
		return nil, err
	}
	report := agg.Finish()
	report.PeakPending = peak
	p.finish(report)
	return report, nil
}

// runPlan runs every (pattern, seed) pair through sched.Run under the
// spec's scheduler, FSYNC by default.
func runPlan(spec Spec) plan {
	seeds := spec.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	alg := spec.Alg
	if spec.Cache != nil {
		alg = core.Memoize(alg, spec.Cache)
	}
	newSched := spec.Scheduler
	if newSched == nil {
		newSched = func(int64) sched.Scheduler { return sched.FSYNC{} }
	}
	// Counter snapshots, not absolute values: the store may arrive warm
	// from an earlier sweep, and the Report describes this sweep only.
	var memoBase memo.Stats
	if spec.OutcomeMemo != nil {
		memoBase = spec.OutcomeMemo.Stats()
	}
	return plan{
		meta: Meta{
			Algorithm: alg.Name(),
			Scheduler: newSched(seeds[0]).Name(),
			Robots:    spec.N,
			Source:    spec.Source.Label(),
			Patterns:  spec.Source.Count(),
			Schedules: len(seeds),
		},
		seeds: seeds,
		newStep: func() func(*CaseResult) error {
			// One pooled cycle set per worker: a worker's runs are
			// sequential, so reuse is safe and removes the largest
			// per-run allocation.
			var cycles config.PatternSet
			opts := sim.Options{
				MaxRounds:        spec.MaxRounds,
				DetectCycles:     true,
				StopOnDisconnect: true,
				Goal:             spec.Goal,
				CycleSet:         &cycles,
				Outcomes:         spec.OutcomeMemo,
			}
			// One scheduler per seed, built on the worker's first run
			// of it; Index mod len(seeds) is the run's seed position.
			schedulers := make([]sched.Scheduler, len(seeds))
			return func(cr *CaseResult) error {
				s := &schedulers[cr.Index%len(seeds)]
				if *s == nil {
					*s = newSched(cr.Seed)
				}
				res := sched.Run(alg, cr.Initial, *s, opts)
				cr.Status, cr.Rounds, cr.Moves = res.Status, res.Rounds, res.Moves
				cr.Class = Classify(cr.Initial, res.Status)
				return nil
			}
		},
		finish: func(r *Report) {
			if spec.OutcomeMemo != nil {
				r.Memo = spec.OutcomeMemo.Stats().Sub(memoBase)
			}
		},
	}
}

// adversaryPlan decides every pattern exactly over one shared solver
// memo; the solver's game graph is concurrent, so every worker decides
// on the one Adversary. Verdicts, witnesses and the report do not
// depend on the worker count. Only the per-pattern state counts
// (Verdict.States) do: they say which worker reached a shared state
// first, so a one-worker sweep keeps them deterministic.
func adversaryPlan(spec Spec) plan {
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
	return plan{
		meta: Meta{
			Algorithm: opts.Alg.Name(),
			Scheduler: "adversary",
			Robots:    spec.N,
			Source:    spec.Source.Label(),
			Patterns:  spec.Source.Count(),
			Schedules: 1,
		},
		seeds: []int64{0},
		newStep: func() func(*CaseResult) error {
			return func(cr *CaseResult) error {
				verdict, err := adv.Decide(cr.Initial)
				if err != nil {
					return fmt.Errorf("pattern %d (%s): %w", cr.Pattern, cr.Initial.Key(), err)
				}
				setVerdict(cr, verdict)
				return nil
			}
		},
		finish: func(r *Report) {
			r.SolverStates = adv.StatesExplored()
			r.Memo = adv.MemoStats()
		},
	}
}

// setVerdict maps one decided pattern onto the sweep's case currency:
// the witness kind's status for defeatable patterns (a forced cycle is
// a livelock however its bounded replay ends — rounds/moves describe
// the verified replay) and Gathered for safe ones.
func setVerdict(cr *CaseResult, verdict adversary.Verdict) {
	cr.Verdict = &verdict
	switch verdict.Kind {
	case adversary.Safe:
		cr.Status = sim.Gathered
	case adversary.Defeatable:
		cr.Status = verdict.Witness.Status()
		cr.Rounds = verdict.ReplayRounds
		cr.Moves = verdict.ReplayMoves
	}
	cr.Class = Classify(cr.Initial, cr.Status)
}

// execute is the ordered-parallel executor every sweep runs on. The
// dispatcher cuts the source's runs into contiguous batches, a worker
// completes a whole batch with the plan's step and hands it back in one
// channel send, and the collector — the calling goroutine — reorders
// whole batches, then aggregates, delivers and reports progress one
// case at a time in Index order. It returns the reorder buffer's
// high-water mark in batches.
//
// The window bounds memory: there are exactly window batch buffers,
// the dispatcher takes a free one before filling it and the collector
// frees it once delivered, so completion can outrun delivery by at
// most the window and steady state allocates nothing per batch.
func execute(ctx context.Context, spec Spec, p plan, agg *Aggregator, visit func(CaseResult) error) (int, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	m := len(p.seeds)
	total := p.meta.Patterns * m
	window := max(1, min(4*spec.Workers, (total+batchSize-1)/batchSize))
	free := make(chan *batch, window)
	for range window {
		free <- &batch{cases: make([]CaseResult, 0, batchSize)}
	}
	// A batch queued per worker on each side keeps the workers busy
	// while the dispatcher or the collector is between batches.
	jobs := make(chan *batch, spec.Workers)
	results := make(chan *batch, spec.Workers)

	var wg sync.WaitGroup
	for range spec.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			step := p.newStep()
			for b := range jobs {
				if ctx.Err() != nil {
					continue // cancelled: drain the queue without running
				}
				for k := range b.cases {
					if err := step(&b.cases[k]); err != nil {
						b.cases, b.err = b.cases[:k], err
						break
					}
				}
				select {
				case results <- b:
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
		var b *batch
		seq := 0
		send := func() bool {
			select {
			case jobs <- b:
				b = nil
				return true
			case <-ctx.Done():
				return false
			}
		}
		spec.Source.Each(func(i int, c config.Config) bool {
			for si, s := range p.seeds {
				if b == nil {
					select {
					case b = <-free:
					case <-ctx.Done():
						return false
					}
					b.seq, b.cases, b.err = seq, b.cases[:0], nil
					seq++
				}
				b.cases = append(b.cases, CaseResult{Index: i*m + si, Pattern: i, Initial: c, Seed: s})
				if len(b.cases) == batchSize && !send() {
					return false
				}
			}
			return true
		})
		if b != nil {
			send() // the short tail batch
		}
	}()

	// Batch seq can only be dispatched once every batch before
	// seq-window+1 is delivered, so the batches awaiting delivery have
	// distinct slots seq % window.
	ring := make([]*batch, window)
	held, peak, next, done := 0, 0, 0, 0
	// Nil-safe registry accessors: without Spec.Metrics these resolve
	// to live throwaway metrics, so the loop stays branch-free.
	runsMetric := spec.Metrics.Counter("sweep_runs_total")
	pendingHW := spec.Metrics.Gauge("sweep_pending_high_water")
	var err error
	for b := range results {
		if err != nil || ctx.Err() != nil {
			continue // drain so the workers can exit
		}
		ring[b.seq%window] = b
		held++
		if held > peak {
			peak = held
			pendingHW.SetMax(int64(peak))
		}
		for err == nil && ring[next%window] != nil {
			b := ring[next%window]
			ring[next%window] = nil
			held--
			next++
			for _, cr := range b.cases {
				runsMetric.Inc()
				agg.Absorb(cr)
				if visit != nil {
					if err = visit(cr); err != nil {
						break
					}
				}
				done++
				if spec.Progress != nil {
					spec.Progress(done, total)
				}
			}
			if err == nil {
				err = b.err
			}
			if err != nil {
				cancel()
			}
			free <- b // never blocks: free holds every buffer at most once
		}
	}
	if err == nil && done < total {
		err = ctx.Err()
	}
	return peak, err
}
